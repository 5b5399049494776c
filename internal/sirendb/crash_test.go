package sirendb

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"siren/internal/wire"
)

// TestSeededCrashSequences drives random sequences of inserts (messages, and
// datagrams as the receiver hands them over, some spelled non-canonically),
// Sync, Seal, crashes and reopens against an oracle of the rows that must
// have survived. A crash copies the store as power loss would leave it:
// every active segment cut at its synced offset, either mid-session or right
// after a Seal's commit marker became durable (testCrashAfterSealCommit).
// The copy reopens read-write, or read-only first; a clean reopen may change
// the shard count. After every reopen each row the oracle holds is there
// exactly once, no lost row comes back, every shard cursor yields strictly
// ascending sequence numbers, and each (job, host) reads in insertion order.
//
// Each sequence is a function of its seed, printed in the subtest name;
// SIREN_CRASH_SEED=<n> runs one more.
func TestSeededCrashSequences(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if s := os.Getenv("SIREN_CRASH_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SIREN_CRASH_SEED=%q: %v", s, err)
		}
		seeds = append(seeds, n)
	}
	steps := 60
	if testing.Short() {
		steps = 20
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			(&crashRun{t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir()}).run(steps)
		})
	}
}

// crashRun is one seeded sequence: the live store and the oracle.
type crashRun struct {
	t       *testing.T
	rng     *rand.Rand
	dir     string
	gen     int // crash copies made, naming their directories
	path    string
	shards  int
	db      *DB
	next    int          // the next row's number, carried in its content
	durable map[int]bool // rows that must survive any crash
	pending []int        // rows inserted since the last durability point
}

func (r *crashRun) run(steps int) {
	r.path, r.shards, r.durable = filepath.Join(r.dir, "store", "siren.wal"), 1+r.rng.Intn(3), map[int]bool{}
	if err := os.MkdirAll(filepath.Dir(r.path), 0o755); err != nil {
		r.t.Fatal(err)
	}
	r.open(false)
	defer func() { _ = r.db.Close() }()
	for step := 0; step < steps; step++ {
		var op string
		switch p := r.rng.Intn(100); {
		case p < 50:
			op = "insert"
			r.insert()
		case p < 62:
			op = "sync"
			if err := r.db.Sync(); err != nil {
				r.t.Fatalf("step %d: Sync: %v", step, err)
			}
			r.settle()
		case p < 74:
			op = "seal"
			if err := r.db.Seal(); err != nil {
				r.t.Fatalf("step %d: Seal: %v", step, err)
			}
			r.settle()
		case p < 84:
			op = "crash at the synced prefix"
			r.crash(false)
		case p < 92:
			op = "crash after the seal commit"
			r.crash(true)
		default:
			op = "clean reopen"
			if err := r.db.Close(); err != nil {
				r.t.Fatalf("step %d: Close: %v", step, err)
			}
			r.settle()
			r.shards = 1 + r.rng.Intn(3)
			r.open(false)
		}
		r.check(fmt.Sprintf("step %d (%s, %d shards)", step, op, r.shards))
	}
}

// settle marks every pending row durable.
func (r *crashRun) settle() {
	for _, id := range r.pending {
		r.durable[id] = true
	}
	r.pending = r.pending[:0]
}

// open opens the store at r.path read-write, after a read-only open that is
// checked first when readOnly is set.
func (r *crashRun) open(readOnly bool) {
	if readOnly {
		db, err := OpenOptions(r.path, Options{Shards: r.shards, ReadOnly: true})
		if err != nil {
			r.t.Fatalf("read-only open: %v", err)
		}
		r.db = db
		r.check("read-only open")
		if err := db.Close(); err != nil {
			r.t.Fatal(err)
		}
	}
	db, err := OpenOptions(r.path, Options{Shards: r.shards, SyncInterval: time.Hour})
	if err != nil {
		r.t.Fatalf("open: %v", err)
	}
	r.db = db
}

// insert stores a batch of fresh rows, by InsertBatch or — one (job, host)
// routed to its shard, as a receiver writer does — by InsertScanned.
func (r *crashRun) insert() {
	n := 1 + r.rng.Intn(12)
	job, host := fmt.Sprintf("job-%d", r.rng.Intn(4)), fmt.Sprintf("nid%d", r.rng.Intn(3))
	ms := make([]wire.Message, n)
	for i := range ms {
		if r.rng.Intn(2) == 0 {
			job, host = fmt.Sprintf("job-%d", r.rng.Intn(4)), fmt.Sprintf("nid%d", r.rng.Intn(3))
		}
		ms[i] = wire.Message{
			Header: wire.Header{JobID: job, StepID: "0", PID: 100 + r.next, Hash: "abcd", Host: host,
				Time: 1733900000, Layer: wire.LayerSelf, Type: wire.TypeObjects, Seq: 0, Total: 1},
			Content: []byte(strings.Repeat("x", r.rng.Intn(300)) + "#" + strconv.Itoa(r.next)),
		}
		r.pending = append(r.pending, r.next)
		r.next++
	}
	if r.rng.Intn(2) == 0 {
		if err := r.db.InsertBatch(ms); err != nil {
			r.t.Fatalf("InsertBatch: %v", err)
		}
		return
	}
	ds := make([]wire.Scanned, n)
	for i := range ms {
		ms[i].JobID, ms[i].Host = job, host
		d := wire.Encode(ms[i])
		if r.rng.Intn(4) == 0 { // a sender that spells PID with a '+'
			d = []byte(strings.Replace(string(d), "|PID=", "|PID=+", 1))
		}
		f, err := wire.Scan(d)
		if err != nil {
			r.t.Fatal(err)
		}
		ds[i] = wire.Scanned{Datagram: d, Fields: f}
	}
	if err := r.db.InsertScanned(r.db.shardIndex([]byte(job), []byte(host)), ds); err != nil {
		r.t.Fatalf("InsertScanned: %v", err)
	}
}

// crash leaves the store as a crash would — after a Seal whose commit
// marker became durable when afterSeal is set — in a fresh directory, and
// reopens that copy.
func (r *crashRun) crash(afterSeal bool) {
	if afterSeal {
		r.db.testCrashAfterSealCommit = true
		sealing := len(r.pending) > 0 || r.db.Count() > r.db.Stats().SealedRows
		err := r.db.Seal()
		if sealing && err == nil {
			r.t.Fatal("injected crash after the seal commit did not surface")
		}
		if sealing {
			r.settle() // every head row is in a committed run now
		}
	}
	r.gen++
	dst := filepath.Join(r.dir, fmt.Sprintf("crash-%d", r.gen), "siren.wal")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		r.t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(r.path))
	if err != nil {
		r.t.Fatal(err)
	}
	base := filepath.Base(r.path)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, base+".") || strings.HasSuffix(name, ".lock") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(filepath.Dir(r.path), name))
		if err != nil {
			r.t.Fatal(err)
		}
		if i, err := strconv.Atoi(name[len(base)+1:]); err == nil && i < len(r.db.shards) {
			data = data[:r.db.shards[i].synced.Load()] // power loss: the unsynced tail is gone
		}
		if err := os.WriteFile(filepath.Join(filepath.Dir(dst), name), data, 0o644); err != nil {
			r.t.Fatal(err)
		}
	}
	_ = r.db.Close() // the crashed process; a poisoned store's close error is expected
	r.pending = r.pending[:0]
	r.path = dst
	r.open(r.rng.Intn(2) == 0)
}

// check compares the store with the oracle.
func (r *crashRun) check(when string) {
	r.t.Helper()
	want := make(map[int]bool, len(r.durable)+len(r.pending))
	for id := range r.durable {
		want[id] = true
	}
	for _, id := range r.pending {
		want[id] = true
	}
	type row struct {
		seq uint64
		id  int
		key string
	}
	var rows []row
	sn := r.db.Snapshot()
	for i := 0; i < sn.Shards(); i++ {
		c := sn.ShardCursor(i)
		var prev uint64
		for {
			m, seq, ok := c.Next()
			if !ok {
				break
			}
			if seq <= prev {
				r.t.Fatalf("%s: shard %d yields seq %d after %d", when, i, seq, prev)
			}
			prev = seq
			content := string(m.Content)
			id, err := strconv.Atoi(content[strings.LastIndexByte(content, '#')+1:])
			if err != nil || m.PID != 100+id {
				r.t.Fatalf("%s: row %+v does not read back as written", when, m.Header)
			}
			rows = append(rows, row{seq, id, m.JobID + "/" + m.Host})
		}
	}
	if err := sn.Err(); err != nil {
		r.t.Fatalf("%s: %v", when, err)
	}
	seen := make(map[int]bool, len(rows))
	for _, rw := range rows {
		switch {
		case seen[rw.id]:
			r.t.Fatalf("%s: row %d duplicated", when, rw.id)
		case !want[rw.id]:
			r.t.Fatalf("%s: row %d resurrected: it was lost in a crash", when, rw.id)
		}
		seen[rw.id] = true
	}
	for id := range want {
		if !seen[id] {
			r.t.Fatalf("%s: row %d lost", when, id)
		}
	}
	slices.SortFunc(rows, func(a, b row) int { return cmp.Compare(a.seq, b.seq) })
	last := map[string]int{}
	for _, rw := range rows {
		if prev, ok := last[rw.key]; ok && rw.id < prev {
			r.t.Fatalf("%s: (job, host) %s reads row %d after row %d", when, rw.key, rw.id, prev)
		}
		last[rw.key] = rw.id
	}
}
