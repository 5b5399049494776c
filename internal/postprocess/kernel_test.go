package postprocess

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"siren/internal/campaign"
	"siren/internal/pyenv"
	"siren/internal/wire"
)

// The consolidation kernel (wire.Reassemble + consolidateRows) is pinned
// against the implementation it replaced — decoded Messages, string-joined
// map keys, a chunk
// map per record, a seen-map per process, METADATA through a key→value map —
// kept below as the differential oracle. Two deliberate differences, both
// where the old code was wrong on hostile input: the oracle length-prefixes
// the fields of its joined keys (the old keys joined them with 0x1f, a byte
// legal inside a header value, so two processes could collapse into one
// record), and its seen-set keys LAYER and TYPE apart (the old "LAYER:TYPE"
// string made ("A:B", "C") and ("A", "B:C") the same type).

func joinKey(fields ...string) string {
	var sb strings.Builder
	for _, f := range fields {
		sb.WriteString(strconv.Itoa(len(f)))
		sb.WriteByte(':')
		sb.WriteString(f)
	}
	return sb.String()
}

// oracleRecord is a reassembled record in Message form.
type oracleRecord struct {
	Header   wire.Header
	Content  []byte
	Complete bool
}

// chunkTail is the part of a chunk's datagram after its SEQ value, where the
// copies of one (record, Seq) can differ; comparing it compares the whole
// datagrams.
func chunkTail(m wire.Message) string {
	return strconv.Itoa(m.Total) + "|CONTENT=" + string(m.Content)
}

// reassembleOracle keeps, per record and Seq, the copy whose datagram is
// greatest.
func reassembleOracle(msgs []wire.Message) []oracleRecord {
	type group struct {
		header   wire.Header
		maxTotal int
		mismatch bool
		chunks   map[int]wire.Message
	}
	groups := make(map[string]*group)
	var keys []string
	for _, m := range msgs {
		h := m.Header
		k := joinKey(h.JobID, h.StepID, strconv.Itoa(h.PID), h.Hash, h.Host,
			strconv.FormatInt(h.Time, 10), h.Layer, h.Type)
		g, ok := groups[k]
		if !ok {
			g = &group{header: m.Header, maxTotal: m.Total, chunks: make(map[int]wire.Message)}
			groups[k] = g
			keys = append(keys, k)
		}
		if m.Total != g.maxTotal {
			g.mismatch = true
			if m.Total > g.maxTotal {
				g.maxTotal = m.Total
			}
		}
		if prev, ok := g.chunks[m.Seq]; !ok || chunkTail(m) > chunkTail(prev) {
			g.chunks[m.Seq] = m
		}
	}
	out := make([]oracleRecord, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		g.header.Total = g.maxTotal
		seqs := make([]int, 0, len(g.chunks))
		for s := range g.chunks {
			seqs = append(seqs, s)
		}
		sort.Ints(seqs)
		complete := !g.mismatch && len(seqs) == g.maxTotal &&
			seqs[0] == 0 && seqs[len(seqs)-1] == g.maxTotal-1
		var content []byte
		for _, s := range seqs {
			content = append(content, g.chunks[s].Content...)
		}
		out = append(out, oracleRecord{Header: g.header, Content: content, Complete: complete})
	}
	return out
}

func consolidateChunkOracle(msgs []wire.Message) (out []*ProcessRecord, nRecords int) {
	records := reassembleOracle(msgs)
	nRecords = len(records)

	groups := make(map[string][]oracleRecord)
	var order []string
	for _, rec := range records {
		h := rec.Header
		k := joinKey(h.JobID, h.StepID, strconv.Itoa(h.PID), h.Hash, h.Host)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], rec)
	}

	for _, k := range order {
		recs := groups[k]
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Header.Time < recs[j].Header.Time })
		var p *ProcessRecord
		seen := make(map[string]bool)
		for _, rec := range recs {
			tk := rec.Header.Layer + ":" + rec.Header.Type
			sk := joinKey(rec.Header.Layer, rec.Header.Type)
			if p == nil || seen[sk] {
				h := rec.Header
				p = &ProcessRecord{
					JobID: h.JobID, StepID: h.StepID, PID: h.PID,
					ExeHash: h.Hash, Host: h.Host, Time: h.Time,
				}
				out = append(out, p)
				seen = make(map[string]bool)
			}
			seen[sk] = true
			if !rec.Complete {
				p.MissingFields = append(p.MissingFields, tk)
			}
			content := string(rec.Content)
			if rec.Header.Layer == wire.LayerScript {
				applyScriptOracle(p, rec.Header.Type, content)
				continue
			}
			applySelfOracle(p, rec.Header.Type, content)
		}
	}
	for _, p := range out {
		if p.Category == "python" && len(p.Maps) > 0 {
			p.Imports = pyenv.ExtractImports(p.Maps)
		}
	}
	return out, nRecords
}

// applySelfOracle is the old applySelf for the types whose parsing changed
// (METADATA through parseKV's map, the list types through an append-grown
// split); the untouched ones go to the production code.
func applySelfOracle(p *ProcessRecord, typ, content string) {
	switch typ {
	case wire.TypeMetadata:
		kv := parseKV(content)
		p.Exe = kv["EXE"]
		p.Category = kv["CATEGORY"]
		p.PPID = atoi(kv["PPID"])
		p.UID = uint32(atoi(kv["UID"]))
		p.GID = uint32(atoi(kv["GID"]))
		p.Inode = uint64(atoi(kv["INODE"]))
		p.Size = int64(atoi(kv["SIZE"]))
		p.Mode = uint32(atoiBase(kv["MODE"], 8))
		p.OwnerUID = uint32(atoi(kv["OWNER_UID"]))
		p.OwnerGID = uint32(atoi(kv["OWNER_GID"]))
		p.Atime = int64(atoi(kv["ATIME"]))
		p.Mtime = int64(atoi(kv["MTIME"]))
		p.Ctime = int64(atoi(kv["CTIME"]))
	case wire.TypeObjects:
		p.Objects = splitLinesOracle(content)
	case wire.TypeModules:
		p.Modules = splitLinesOracle(content)
	case wire.TypeCompilers:
		p.Compilers = splitLinesOracle(content)
	default:
		applySelf(p, typ, content)
	}
}

func applyScriptOracle(p *ProcessRecord, typ, content string) {
	if typ != wire.TypeMetadata {
		applyScript(p, typ, content)
		return
	}
	if p.Script == nil {
		p.Script = &ScriptRecord{}
	}
	kv := parseKV(content)
	p.Script.Path = kv["EXE"]
	p.Script.Size = int64(atoi(kv["SIZE"]))
	p.Script.Mtime = int64(atoi(kv["MTIME"]))
	p.Script.Inode = uint64(atoi(kv["INODE"]))
}

func parseKV(content string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(content, "\n") {
		if i := strings.IndexByte(line, '='); i > 0 {
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}

func splitLinesOracle(content string) []string {
	if content == "" {
		return nil
	}
	var out []string
	for _, line := range strings.Split(content, "\n") {
		if line != "" {
			out = append(out, line)
		}
	}
	return out
}

// chunkCountsOracle counts msgs' distinct (record, Seq) chunks, and their
// distinct byte versions beyond the first.
func chunkCountsOracle(msgs []wire.Message) (chunks, conflicts int) {
	versions := make(map[string]map[string]bool)
	for _, m := range msgs {
		h := m.Header
		k := joinKey(h.JobID, h.StepID, strconv.Itoa(h.PID), h.Hash, h.Host,
			strconv.FormatInt(h.Time, 10), h.Layer, h.Type, strconv.Itoa(h.Seq))
		if versions[k] == nil {
			versions[k] = make(map[string]bool)
		}
		versions[k][chunkTail(m)] = true
	}
	for _, v := range versions {
		conflicts += len(v) - 1
	}
	return len(versions), conflicts
}

// mustMatchOracle runs the kernel over one chunk as the canonical rows a
// store holds, and the oracle over its Messages, and compares every record
// (pointers followed), the reassembled-record count and the chunk counts.
func mustMatchOracle(t testing.TB, name string, msgs []wire.Message) {
	t.Helper()
	jr := consolidateRows(encodeMessages(msgs))
	got, gotN := jr.Records, jr.Reassembled
	want, wantN := consolidateChunkOracle(msgs)
	if gotN != wantN || len(got) != len(want) {
		t.Fatalf("%s: kernel produced %d processes from %d records, oracle %d from %d",
			name, len(got), gotN, len(want), wantN)
	}
	if chunks, conflicts := chunkCountsOracle(msgs); jr.Messages != chunks || jr.ChunkConflicts != conflicts {
		t.Fatalf("%s: kernel counted %d chunks and %d conflicts, oracle %d and %d",
			name, jr.Messages, jr.ChunkConflicts, chunks, conflicts)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: process %d diverged:\nkernel %+v\noracle %+v", name, i, got[i], want[i])
		}
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: nil-ness of the result diverged", name)
	}
}

// campaignCapture is what the end-to-end benchmark replays: every datagram
// the collector sends during the seed-1, scale-0.02 simulated campaign, in
// send order (single worker, so the order is reproducible), parsed.
var campaignCapture = sync.OnceValue(func() []wire.Message {
	tr := &captureTransport{}
	if _, err := campaign.Run(campaign.Config{Scale: 0.02, Seed: 1, Workers: 1, Transport: tr}); err != nil {
		panic(err)
	}
	return tr.msgs
})

type captureTransport struct{ msgs []wire.Message }

func (c *captureTransport) Send(d []byte) error {
	m, err := wire.Parse(d)
	if err != nil {
		return err
	}
	c.msgs = append(c.msgs, m)
	return nil
}

func (c *captureTransport) Close() error { return nil }

// jobChunks splits a message stream into the units a consolidation worker
// sees: one chunk per job, each in stream order, jobs in first-appearance
// order.
func jobChunks(msgs []wire.Message) [][]wire.Message {
	index := make(map[string]int)
	var chunks [][]wire.Message
	for _, m := range msgs {
		i, ok := index[m.JobID]
		if !ok {
			i = len(chunks)
			index[m.JobID] = i
			chunks = append(chunks, nil)
		}
		chunks[i] = append(chunks[i], m)
	}
	return chunks
}

// rowChunks encodes every chunk as the canonical rows a store holds.
func rowChunks(chunks [][]wire.Message) [][]wire.Scanned {
	out := make([][]wire.Scanned, len(chunks))
	for i, c := range chunks {
		out[i] = encodeMessages(c)
	}
	return out
}

// degrade returns the stream as a bad network would deliver it: 2 % of the
// datagrams lost, 2 % delivered twice, and every window of 16 shuffled.
func degrade(msgs []wire.Message, seed int64) []wire.Message {
	rng := rand.New(rand.NewSource(seed))
	out := make([]wire.Message, 0, len(msgs))
	for _, m := range msgs {
		switch r := rng.Intn(100); {
		case r < 2:
		case r < 4:
			out = append(out, m, m)
		default:
			out = append(out, m)
		}
	}
	for lo := 0; lo < len(out); lo += 16 {
		w := out[lo:min(lo+16, len(out))]
		rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	}
	return out
}

// TestKernelMatchesOracleOnCampaign: over the full campaign capture, clean
// and degraded, per job (the production chunking) and as one whole-store
// chunk, the kernel's records equal the oracle's.
func TestKernelMatchesOracleOnCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full scale-0.02 campaign capture")
	}
	capture := campaignCapture()
	for _, tc := range []struct {
		name string
		msgs []wire.Message
	}{
		{"capture", capture},
		{"lossy-duplicated-shuffled", degrade(capture, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chunks := jobChunks(tc.msgs)
			if len(chunks) < 100 || len(tc.msgs) < 100_000 {
				t.Fatalf("capture shrank to %d messages in %d jobs", len(tc.msgs), len(chunks))
			}
			incomplete := 0
			for _, chunk := range chunks {
				mustMatchOracle(t, "job "+chunk[0].JobID, chunk)
				for _, r := range consolidateRows(encodeMessages(chunk)).Records {
					if len(r.MissingFields) > 0 {
						incomplete++
					}
				}
			}
			if degraded := tc.name != "capture"; degraded != (incomplete > 0) {
				t.Errorf("%d processes with missing fields", incomplete)
			}
			mustMatchOracle(t, "whole store", tc.msgs)
		})
	}
}

// TestConsolidateAllocationsPerRow holds the kernel to its allocation budget
// on campaign traffic: what a row must cost is its share of the process
// record, the identity and content strings of its pass and the parsed lists
// — not keys, maps and per-record bookkeeping (18.6 allocations per row
// before the first rewrite, 2.0 over decoded Messages, 1.37 over the stored
// rows; the bound leaves 0.13 of margin).
func TestConsolidateAllocationsPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full scale-0.02 campaign capture")
	}
	capture := campaignCapture()
	chunks := rowChunks(jobChunks(capture))
	allocs := testing.AllocsPerRun(1, func() {
		for _, chunk := range chunks {
			consolidateRows(chunk)
		}
	})
	perRow := allocs / float64(len(capture))
	t.Logf("%.2f allocations per row over %d rows in %d jobs", perRow, len(capture), len(chunks))
	if perRow > 1.5 {
		t.Errorf("consolidateRows = %.2f allocations per row, want <= 1.5", perRow)
	}
}

// TestConsolidateSealedAllocationsPerRow is the same budget for the whole
// read path a restarted store takes: ConsolidateSnapshot over the capture
// with two thirds of it in sealed runs, by one worker — the run cursors, the
// sequence merge and the kernel together, 1.40 per row measured. Rows are
// views, so reading them adds nothing per row; the bound leaves 0.10 of
// margin.
func TestConsolidateSealedAllocationsPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full scale-0.02 campaign capture")
	}
	db, rows := openSealedCapture(t)
	defer db.Close()
	allocs := testing.AllocsPerRun(1, func() {
		snap := db.Snapshot()
		if _, stats := ConsolidateSnapshot(snap, StreamOptions{Workers: 1}); stats.Messages != rows || snap.Err() != nil {
			t.Fatalf("consolidated %d of %d rows (%v)", stats.Messages, rows, snap.Err())
		}
	})
	perRow := allocs / float64(rows)
	t.Logf("%.2f allocations per row over %d rows", perRow, rows)
	if perRow > 1.5 {
		t.Errorf("ConsolidateSnapshot over sealed runs = %.2f allocations per row, want <= 1.5", perRow)
	}
}

// TestConsolidateWorstCaseStaysLinear feeds the shapes a hostile sender could
// use against the grouping — one process identity announcing 50 000 distinct
// TYPEs, one record delivered as 50 000 shuffled chunks, and 50 000 records
// built to share one value of an unseeded key hash — and requires each to
// cost, per row, no more than ten times a campaign row. A per-process list of
// seen types, a per-identity scan, or a record lookup whose hash a sender can
// predict would be quadratic and miss the bound by two orders of magnitude.
func TestConsolidateWorstCaseStaysLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full scale-0.02 campaign capture")
	}
	const n = 50_000
	perRow := func(msgChunks [][]wire.Message) time.Duration {
		chunks := rowChunks(msgChunks)
		rows := 0
		for _, c := range chunks {
			rows += len(c)
		}
		best := time.Duration(0)
		for try := 0; try < 3; try++ {
			start := time.Now()
			for _, c := range chunks {
				consolidateRows(c)
			}
			if d := time.Since(start); try == 0 || d < best {
				best = d
			}
		}
		return best / time.Duration(rows)
	}
	base := perRow(jobChunks(campaignCapture()))

	h := wire.Header{JobID: "1", StepID: "0", PID: 7, Hash: "h", Host: "n", Time: 1, Layer: wire.LayerSelf, Total: 1}
	types := make([]wire.Message, n)
	for i := range types {
		types[i] = wire.Message{Header: h, Content: []byte("x")}
		types[i].Type = "T" + strconv.Itoa(i)
	}
	h.Type, h.Total = wire.TypeObjects, n
	chunks := make([]wire.Message, n)
	for i := range chunks {
		chunks[i] = wire.Message{Header: h, Content: []byte("/lib64/libc.so.6\n")}
		chunks[i].Seq = i
	}
	rand.New(rand.NewSource(5)).Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	// Records that differ only in the two integer key fields, paired so that
	// PID*c1 == TIME*c2 (mod 2^64). A record hash that seeds the strings but
	// mixes PID*c1 ^ TIME*c2 in afterwards — an earlier build of Reassemble did,
	// with these multipliers — gives all of these one value whatever the seed.
	const c1, c2 = 0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f
	c1inv := uint64(c1) // Newton's iteration for the inverse of an odd number mod 2^64
	for i := 0; i < 6; i++ {
		c1inv *= 2 - c1*c1inv
	}
	h.Type, h.Total = wire.TypeFileH, 1
	paired := make([]wire.Message, n)
	for i := range paired {
		paired[i] = wire.Message{Header: h, Content: []byte("3:aaa:bbb")}
		paired[i].Time = int64(i + 1)
		paired[i].PID = int(uint64(i+1) * c2 * c1inv)
	}

	for _, tc := range []struct {
		name string
		msgs []wire.Message
	}{{"distinct-types", types}, {"one-record-many-chunks", chunks}, {"paired-pid-time", paired}} {
		got := perRow([][]wire.Message{tc.msgs})
		t.Logf("%s: %v per row (campaign: %v)", tc.name, got, base)
		if got > 10*base {
			t.Errorf("%s: %v per row, more than 10x the campaign's %v", tc.name, got, base)
		}
		mustMatchOracle(t, tc.name, tc.msgs)
	}
}

// TestSeparatorByteInsideValuesKeepsProcessesApart: 0x1f is legal inside a
// header value, and the grouping keys used to join fields with it. Each pair
// below collided — two datagrams consolidated into one ProcessRecord that
// carried one process's identity and the other's FILE_H.
func TestSeparatorByteInsideValuesKeepsProcessesApart(t *testing.T) {
	for name, pair := range map[string][2]string{
		"across jobs": {
			"SIREN1|JOBID=100\x1f7|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=FILE_H|SEQ=0|TOT=1|CONTENT=3:aaa:bbb",
			"SIREN1|JOBID=100|STEPID=7\x1f0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=FILE_H|SEQ=0|TOT=1|CONTENT=3:ccc:ddd",
		},
		"inside one job": {
			"SIREN1|JOBID=100|STEPID=0|PID=1|HASH=2\x1fh|HOST=n|TIME=1|LAYER=SELF|TYPE=FILE_H|SEQ=0|TOT=1|CONTENT=3:aaa:bbb",
			"SIREN1|JOBID=100|STEPID=0\x1f1|PID=2|HASH=h|HOST=n|TIME=2|LAYER=SELF|TYPE=STRINGS_H|SEQ=0|TOT=1|CONTENT=3:ccc:ddd",
		},
	} {
		var msgs []wire.Message
		for _, d := range pair {
			m, err := wire.Parse([]byte(d))
			if err != nil {
				t.Fatal(err)
			}
			msgs = append(msgs, m)
		}
		jr := consolidateRows(encodeMessages(msgs))
		recs, n := jr.Records, jr.Reassembled
		if len(recs) != 2 || n != 2 {
			t.Fatalf("%s: %d datagrams of different processes became %d record(s)", name, len(msgs), len(recs))
		}
		for i, r := range recs {
			m := msgs[i]
			if r.JobID != m.JobID || r.StepID != m.StepID || r.PID != m.PID || r.ExeHash != m.Hash {
				t.Errorf("%s: record %d identity %q/%q/%d/%q, want its own datagram's", name, i, r.JobID, r.StepID, r.PID, r.ExeHash)
			}
			if got := r.FileH + r.StringsH; got != string(m.Content) {
				t.Errorf("%s: record %d digest %q, want %q", name, i, got, m.Content)
			}
		}
	}
}

// fuzzMessages decodes fuzz input into a message set, four bytes a message,
// drawing every field from a vocabulary small enough that identities, types
// and Seqs collide all the time: duplicated and reordered chunks, Total
// disagreement, PID reuse, unknown LAYER and TYPE (some containing ':' and
// 0x1f, the bytes ambiguous joined keys trip on), a HASH containing '=',
// empty content, TIME out of order.
func fuzzMessages(data []byte) []wire.Message {
	jobs := [...]string{"100", "100\x1f7", "200", ""}
	steps := [...]string{"0", "7\x1f0"}
	hashes := [...]string{"h0", "h=1"}
	layers := [...]string{wire.LayerSelf, wire.LayerScript, "A:B", "A"}
	types := [...]string{wire.TypeMetadata, wire.TypeObjects, wire.TypeMaps, wire.TypeFileH,
		wire.TypeModules, "CUSTOM", "B:C", "C"}
	contents := [...]string{
		"",
		"EXE=/users/u/app\nCATEGORY=python\nPPID=7\nUID=1000\nMODE=755\n=skipped\nnoequals\nSIZE=12\nSIZE=34",
		"/lib64/libc.so.6\n\n/lib64/libm.so.6\n",
		"\n\n",
		"7f00-7f10 r-xp 00000000 08:01 12 /usr/lib/python3.10/site-packages/numpy/core/_multiarray.so\n",
		"3:abc:def",
		"EXE=/scratch/u/run.py\nINODE=9\nMTIME=5",
	}
	msgs := make([]wire.Message, 0, len(data)/4)
	for ; len(data) >= 4; data = data[4:] {
		a, b, c, d := data[0], data[1], data[2], data[3]
		msgs = append(msgs, wire.Message{
			Header: wire.Header{
				JobID: jobs[a&3], StepID: steps[a>>2&1], PID: int(a >> 3 & 3),
				Hash: hashes[a>>5&1], Host: "n" + strconv.Itoa(int(a>>6&1)),
				Time:  int64(b & 3),
				Layer: layers[b>>2&3], Type: types[b>>4&7],
				Seq: int(c & 3), Total: 1 + int(c>>2&3),
			},
			Content: []byte(contents[int(d)%len(contents)]),
		})
	}
	return msgs
}

// FuzzConsolidate: whatever set of messages arrives, the kernel — over the
// canonical rows a store holds them as — and the oracle — over the Messages —
// consolidate it into the same process records: count, order, every field.
// The kernel keys records and identities by header bytes, the oracle by
// fields; the last seeds pin that the two agree on rows that differ only in
// SEQ/TOT, only in TIME, or in one header byte, and on a value holding '='.
func FuzzConsolidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0x30, 0, 5, 0, 0x10, 4, 2, 0, 0x10, 5, 2})             // one process: METADATA, FILE_H, OBJECTS in two chunks
	f.Add([]byte{0, 0x30, 0, 5, 0, 0x30, 0, 5, 0, 0x31, 0, 5, 0, 0x30, 4, 5})          // PID reuse: FILE_H repeated, then at a later TIME, then a Total clash
	f.Add([]byte{1, 0x30, 0, 5, 4, 0x30, 0, 5, 0, 0x6c, 0, 0, 0, 0x78, 0, 0})          // 0x1f in JOBID vs STEPID; ("A:B","C") vs ("A","B:C")
	f.Add([]byte{0, 0x23, 0, 4, 0, 0x04, 0, 6, 0, 0x02, 9, 2, 0, 0x01, 6, 2})          // python: MAPS, SCRIPT METADATA, chunks out of order and time
	f.Add([]byte{0, 0x10, 3, 2, 0, 0x10, 3, 3, 0, 0x10, 15, 2, 0, 0x10, 14, 0})        // one Seq delivered twice, Seq beyond Total
	f.Add([]byte("0\x00000\x0f01"))                                                    // a second, empty METADATA under an unknown LAYER clears the first
	f.Add([]byte{0, 0x10, 4, 2, 0, 0x10, 5, 2, 0, 0x10, 8, 2})                         // one OBJECTS record: rows differ only in SEQ/TOT
	f.Add([]byte{0, 0x30, 0, 5, 0, 0x31, 0, 5, 0, 0x32, 0, 5})                         // FILE_H rows that differ only in TIME
	f.Add([]byte{0, 0x30, 0, 5, 0x40, 0x30, 0, 5, 0x08, 0x30, 0, 5, 0x02, 0x30, 0, 5}) // one byte apart: HOST n0/n1, PID 0/1, JOBID 100/200
	f.Add([]byte{0x20, 0x00, 0, 1, 0x20, 0x30, 0, 5, 0, 0x30, 0, 5})                   // HASH=h=1 beside HASH=h0
	// Repeated rows: both chunks of one OBJECTS record again, then chunk 1
	// with other content.
	f.Add([]byte{0, 0x10, 4, 2, 0, 0x10, 5, 2, 0, 0x10, 4, 2, 0, 0x10, 5, 2, 0, 0x10, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		mustMatchOracle(t, "fuzz", fuzzMessages(data))
	})
}

// encodeMessages encodes msgs as the canonical rows a store holds, in one
// buffer the rows are views of.
func encodeMessages(msgs []wire.Message) []wire.Scanned {
	n := 0
	for i := range msgs {
		n += wire.EncodedLen(&msgs[i])
	}
	buf := make([]byte, 0, n)
	rows := make([]wire.Scanned, len(msgs))
	for i := range msgs {
		lo := len(buf)
		buf, rows[i].Fields = wire.AppendEncodeFields(buf, &msgs[i]) // within buf's capacity
		rows[i].Datagram = buf[lo:len(buf):len(buf)]
	}
	return rows
}
