// Sealing: freezing the mutable WAL head into immutable sorted runs.
//
// Seal is the LSM boundary of the store. The write tier stays exactly what
// it was — sharded segments, group commit — but its contents are periodically
// frozen into runfmt run files ("base.run.<gen>.<shard>"), after which the
// segments are truncated back to their magic. A later Open loads the runs in
// O(index) (map the file, decode footer + job index, no row replay) and
// replays only the WAL head — open cost stops growing with campaign history.
//
// Seal is the store's only rewrite transaction, and "base.seal-commit" its
// only commit marker:
//
//	phase 1: write + fsync one run per non-empty shard, fsync the directory
//	phase 2: atomically replace "base.seal-commit" with "gen=G maxseq=N\n"
//	         (tmp + fsync + rename + dir fsync) — the commit point
//	phase 3: truncate every segment to its magic, fdatasync
//	phase 4: drop leftover segments from older shard counts, swap the
//	         in-memory head for the opened runs
//
// Crash anywhere before phase 2 leaves the store untouched: the marker still
// names the previous generation, so the next Open deletes the orphan run
// files of generations beyond it and replays the intact WAL. Crash after
// phase 2 rolls forward: the runs are authoritative, and replay filters out
// WAL records with seq <= the marker's maxseq (sealed residue), truncated or
// not. A torn run tail cannot be mistaken for a short run — runfmt's footer
// sits at the end of the file, so Open(run) fails loudly — and a committed
// generation's run failing to open fails the whole DB open rather than
// silently serving a subset of history.
//
// The marker's maxseq is the residue filter's floor and lives in the marker
// (not derived from the run files) so retention may drop every run of a
// generation without un-filtering residue a crashed phase 3 left behind.
package sirendb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"siren/internal/sirendb/runfmt"
)

// ErrReadOnly is returned by mutating operations on a store opened with
// Options.ReadOnly: the shared lock explicitly permits concurrent readers,
// so a write through any of them would corrupt what the others serve.
var ErrReadOnly = errors.New("sirendb: store is opened read-only")

func sealMarkerPath(base string) string { return base + ".seal-commit" }

func runFilePath(base string, gen, shard int) string {
	return fmt.Sprintf("%s.run.%d.%d", base, gen, shard)
}

// writeSealMarker atomically replaces the seal commit marker. The marker is
// only ever replaced whole (tmp + fsync + rename + dir fsync), so its
// content can never be torn — a crash mid-update leaves either the old
// marker or the new one, never a prefix.
func writeSealMarker(base, dir string, gen int, maxSeq uint64) error {
	tmp := sealMarkerPath(base) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	abandon := func(err error) error {
		_ = f.Close() // abandoning the tmp; the triggering error wins
		os.Remove(tmp)
		return err
	}
	if _, err := fmt.Fprintf(f, "gen=%d maxseq=%d\n", gen, maxSeq); err != nil {
		return abandon(err)
	}
	if err := f.Sync(); err != nil {
		return abandon(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, sealMarkerPath(base)); err != nil {
		os.Remove(tmp)
		return err
	}
	return fsyncDir(dir)
}

// readSealMarker returns the committed generation and sealed-sequence floor,
// (0, 0) when no seal has ever committed. The content is written atomically,
// so anything but an exact "gen=G maxseq=N\n" is external corruption and is
// surfaced, not guessed at.
func readSealMarker(base string) (gen int, maxSeq uint64, err error) {
	data, err := os.ReadFile(sealMarkerPath(base))
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("sirendb: %w", err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "gen=") || !strings.HasSuffix(s, "\n") {
		return 0, 0, fmt.Errorf("sirendb: corrupt seal marker %s: %q", sealMarkerPath(base), s)
	}
	fields := strings.Fields(strings.TrimSuffix(s, "\n"))
	if len(fields) != 2 || !strings.HasPrefix(fields[1], "maxseq=") {
		return 0, 0, fmt.Errorf("sirendb: corrupt seal marker %s: %q", sealMarkerPath(base), s)
	}
	gen, gerr := strconv.Atoi(strings.TrimPrefix(fields[0], "gen="))
	maxSeq, serr := strconv.ParseUint(strings.TrimPrefix(fields[1], "maxseq="), 10, 64)
	if gerr != nil || serr != nil || gen <= 0 {
		return 0, 0, fmt.Errorf("sirendb: corrupt seal marker %s: %q", sealMarkerPath(base), s)
	}
	return gen, maxSeq, nil
}

// runFile names one discovered "base.run.<gen>.<shard>" artifact.
type runFile struct {
	gen   int
	shard int
	path  string
}

// discoverRunFiles lists the store's run files in (gen, shard) order.
func discoverRunFiles(base string) ([]runFile, error) {
	dir, name := filepath.Split(base)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sirendb: %w", err)
	}
	prefix := name + ".run."
	var runs []runFile
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		rest := e.Name()[len(prefix):]
		dot := strings.IndexByte(rest, '.')
		if dot <= 0 {
			continue
		}
		gen, gerr := strconv.Atoi(rest[:dot])
		shard, serr := strconv.Atoi(rest[dot+1:])
		if gerr != nil || serr != nil || gen <= 0 || shard < 0 {
			continue // not a run artifact of this store
		}
		runs = append(runs, runFile{gen: gen, shard: shard, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].gen != runs[j].gen {
			return runs[i].gen < runs[j].gen
		}
		return runs[i].shard < runs[j].shard
	})
	return runs, nil
}

// loadRuns opens every committed run file and attaches it to its shard —
// the O(index) half of Open. Uncommitted runs (generation beyond the
// marker's) are debris from a seal that never reached its commit point:
// deleted on a writable open, ignored on a read-only one. A committed run
// that fails to open fails the whole DB open: serving a silently reduced
// history is the one outcome the tier must never produce.
func (db *DB) loadRuns() error {
	gen, maxSeq, err := readSealMarker(db.path)
	if err != nil {
		return err
	}
	db.sealMu.Lock()
	db.sealGen = gen
	db.sealedSeq = maxSeq
	db.sealMu.Unlock()
	if maxSeq > db.seq.Load() {
		db.seq.Store(maxSeq)
	}
	files, err := discoverRunFiles(db.path)
	if err != nil {
		return err
	}
	removed := false
	for _, rf := range files {
		if rf.gen > gen {
			if db.opts.ReadOnly {
				continue // a live writer may be mid-seal; its debris is not ours
			}
			if err := os.Remove(rf.path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("sirendb: sweeping uncommitted run %s: %w", rf.path, err)
			}
			removed = true
			continue
		}
		r, err := runfmt.Open(rf.path)
		if err != nil {
			db.closeRunsLocked()
			return fmt.Errorf("sirendb: committed run %s: %w", rf.path, err)
		}
		db.attachRun(rf, r)
	}
	if removed {
		if err := fsyncDir(db.dir); err != nil {
			return fmt.Errorf("sirendb: %w", err)
		}
	}
	return nil
}

// attachRun homes an opened run on an in-memory shard. When the run's file
// shard index fits the current shard count the mapping is exact; after a
// shard-count change the run lands on fileShard % shards — its (job, host)
// groups may then sit in a different shard than new head rows of the same
// identity, which the consolidation's cross-shard fan-in already tolerates
// (the same situation a misrouted InsertShard batch produces).
func (db *DB) attachRun(rf runFile, r *runfmt.Run) {
	s := db.shards[rf.shard%len(db.shards)]
	s.runs = append(s.runs, sealedRun{gen: rf.gen, fileShard: rf.shard, path: rf.path, run: r})
	s.sealedRows += r.Rows()
}

// closeRunsLocked releases every attached run mapping — only safe during a
// failing Open, before any snapshot could reference the runs.
func (db *DB) closeRunsLocked() {
	for _, s := range db.shards {
		for _, sr := range s.runs {
			_ = sr.run.Close() // open is failing; the original error wins
		}
		s.runs = nil
		s.sealedRows = 0
	}
}

// Seal freezes every row currently in the WAL head into one immutable
// sorted run file per non-empty shard (generation sealGen+1), commits the
// generation with a durable marker, and truncates the segments — after
// which Open replays only rows inserted since. Leftover segments from an
// older shard count are folded in (their replayed rows are part of the
// sealed head) and removed; torn or corrupt WAL residue goes with the
// truncation. Sealing an empty head is a no-op.
//
// Seal is transactional against crashes: the marker is the commit point, a
// pre-marker crash changes nothing, a post-marker crash is rolled forward by
// the next Open (runs are authoritative, WAL residue with seq <= the
// marker's maxseq is filtered during replay). On a post-marker failure the
// store is poisoned — an insert acknowledged into a segment that recovery
// will re-filter could otherwise be lost.
func (db *DB) Seal() error {
	if db.path == "" {
		return nil
	}
	if db.opts.ReadOnly {
		return ErrReadOnly
	}
	if db.closed.Load() {
		return ErrClosed
	}
	// Freeze the world in the global lock order: all syncMu (keeps the
	// group-commit syncers off the handles being truncated), then all mu
	// (freezes rows and segment offsets), ascending shards.
	for _, s := range db.shards {
		s.syncMu.Lock()
		defer s.syncMu.Unlock()
	}
	for _, s := range db.shards {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	for _, s := range db.shards {
		if s.wal == nil {
			return ErrClosed
		}
	}
	total := 0
	for _, s := range db.shards {
		total += len(s.rows)
	}
	if total == 0 {
		return nil
	}
	sealStart := time.Now()
	phaseStart := sealStart

	// Phase 1: write one fsynced run per non-empty shard.
	db.sealMu.Lock()
	gen := db.sealGen + 1
	db.sealMu.Unlock()
	type written struct {
		shard int
		path  string
		size  int64
	}
	var outs []written
	discard := func() {
		for _, w := range outs {
			os.Remove(w.path)
		}
	}
	maxSeq := db.seq.Load()
	for i, s := range db.shards {
		if len(s.rows) == 0 {
			continue
		}
		path := runFilePath(db.path, gen, i)
		size, err := runfmt.Write(path, s.rows)
		if err != nil {
			discard()
			return fmt.Errorf("sirendb: seal: %w", err)
		}
		outs = append(outs, written{shard: i, path: path, size: size})
	}
	//lint:ignore mutexscope sealing freezes the world by design: every shard is write-locked while the run set is made durable
	if err := fsyncDir(db.dir); err != nil {
		discard()
		return fmt.Errorf("sirendb: seal: %w", err)
	}
	db.mx.sealPhaseNS[0].Since(phaseStart)
	phaseStart = time.Now()

	// Phase 2: commit. The marker replace is atomic; once durable, the runs
	// are the authoritative home of every sealed row. A marker-write error
	// is ambiguous (the rename may yet be durable), so fail forward into the
	// poisoned state recovery knows how to finish.
	if err := writeSealMarker(db.path, db.dir, gen, maxSeq); err != nil {
		db.recordSyncErr(fmt.Errorf("sirendb: seal interrupted, reopen to recover: %w", err))
		return fmt.Errorf("sirendb: seal: %w", err)
	}
	db.mx.sealPhaseNS[1].Since(phaseStart)
	phaseStart = time.Now()
	if db.testCrashAfterSealCommit {
		err := fmt.Errorf("sirendb: seal: injected crash after commit marker")
		db.recordSyncErr(fmt.Errorf("sirendb: seal interrupted, reopen to complete: %w", err))
		return err
	}

	// Phase 3: the sealed rows now live in the runs; truncate every segment
	// back to its magic. Failure here must roll forward (poison): the next
	// open filters the residue by the marker's maxseq.
	rollForward := func(err error) error {
		db.recordSyncErr(fmt.Errorf("sirendb: seal interrupted, reopen to complete: %w", err))
		return fmt.Errorf("sirendb: seal: %w", err)
	}
	for _, s := range db.shards {
		if s.written <= int64(len(segMagic)) {
			continue
		}
		if err := s.wal.Truncate(int64(len(segMagic))); err != nil {
			return rollForward(err)
		}
		if _, err := s.wal.Seek(int64(len(segMagic)), 0); err != nil {
			return rollForward(err)
		}
		//lint:ignore mutexscope sealing freezes the world by design: the truncation must be durable before any shard unfreezes
		if err := fdatasync(s.wal); err != nil {
			return rollForward(err)
		}
		s.written = int64(len(segMagic))
		s.synced.Store(int64(len(segMagic)))
	}
	db.mx.sealPhaseNS[2].Since(phaseStart)
	phaseStart = time.Now()

	// Phase 4: leftover segments from an older shard count were replayed
	// into the head and are now sealed; drop them. Then swap the in-memory
	// head for the opened runs — copy-on-write on the run slices, so
	// existing snapshots keep serving the pre-seal view.
	for _, p := range db.staleSegs {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return rollForward(err)
		}
	}
	db.staleSegs = nil
	for _, w := range outs {
		r, err := runfmt.Open(w.path)
		if err != nil {
			return rollForward(err)
		}
		s := db.shards[w.shard]
		runs := make([]sealedRun, len(s.runs), len(s.runs)+1)
		copy(runs, s.runs)
		s.runs = append(runs, sealedRun{gen: gen, fileShard: w.shard, path: w.path, run: r})
		s.sealedRows += r.Rows()
		// The next head starts with room for as many rows as this one held —
		// the process's own measurement of what a seal interval brings —
		// instead of doubling its way back up from nil under the insert lock.
		s.rows = make([]row, 0, len(s.rows))
		s.byJob = make(map[string][]int)
		s.jobKeys.Store(nil)
	}
	db.sealMu.Lock()
	db.sealGen = gen
	db.sealedSeq = maxSeq
	db.sealMu.Unlock()
	// Corrupt WAL residue (skipped, counted records) was truncated with the
	// segments.
	db.corrupt.Store(0)
	db.mx.sealPhaseNS[3].Since(phaseStart)
	db.mx.sealNS.Since(sealStart)
	return nil
}

// DropSealedBefore removes every sealed run whose newest row has
// seq <= before — the retention hook a catalog-driven rollup calls once a
// consolidated generation covers that watermark. Whole runs only: a run
// with even one newer row survives intact. Returns the number of runs
// dropped. Open snapshots keep reading dropped runs (the mapping outlives
// the unlink); new snapshots no longer see them.
func (db *DB) DropSealedBefore(before uint64) (int, error) {
	return db.dropRuns(func(sr sealedRun) bool { return sr.run.MaxSeq() <= before })
}

// RetainSealedGenerations keeps the newest n sealed generations and drops
// every older one — the receiver's -retain knob. n <= 0 keeps everything.
// Returns the number of runs dropped.
func (db *DB) RetainSealedGenerations(n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	db.sealMu.Lock()
	floor := db.sealGen - n // drop generations <= floor
	db.sealMu.Unlock()
	return db.dropRuns(func(sr sealedRun) bool { return sr.gen <= floor })
}

// dropRuns removes the runs selected by drop from every shard (copy-on-write
// under the shard lock) and unlinks their files. File removal happens after
// the in-memory swap: a crash in between leaves committed-generation files
// that the next open simply re-attaches — retention re-run, never data lost.
func (db *DB) dropRuns(drop func(sealedRun) bool) (int, error) {
	if db.path == "" {
		return 0, nil
	}
	if db.opts.ReadOnly {
		return 0, ErrReadOnly
	}
	if db.closed.Load() {
		return 0, ErrClosed
	}
	var victims []string
	for _, s := range db.shards {
		s.mu.Lock()
		keep := make([]sealedRun, 0, len(s.runs))
		rows := 0
		for _, sr := range s.runs {
			if drop(sr) {
				victims = append(victims, sr.path)
				continue
			}
			keep = append(keep, sr)
			rows += sr.run.Rows()
		}
		s.runs = keep
		s.sealedRows = rows
		s.mu.Unlock()
	}
	if len(victims) == 0 {
		return 0, nil
	}
	for _, p := range victims {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return 0, fmt.Errorf("sirendb: retention: %w", err)
		}
	}
	if err := fsyncDir(db.dir); err != nil {
		return 0, fmt.Errorf("sirendb: retention: %w", err)
	}
	return len(victims), nil
}
