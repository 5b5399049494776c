// Package postprocess consolidates raw UDP messages from the database into
// one record per process — the paper's post-processing stage: chunk merging,
// type assembly, and folding Python-script rows into their parent
// interpreter rows — and derives the fields later analyses consume (e.g.
// imported Python packages recovered from interpreter memory maps).
package postprocess

import (
	"sort"
	"strconv"
	"strings"

	"siren/internal/procfs"
	"siren/internal/pyenv"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// ScriptRecord is the Python-input-script information merged into its
// interpreter's process record.
type ScriptRecord struct {
	Path  string
	FileH string
	Size  int64
	Mtime int64
	Inode uint64
}

// ProcessRecord is the consolidated view of one process instance.
type ProcessRecord struct {
	// Identity (UDP header columns).
	JobID   string
	StepID  string
	PID     int
	ExeHash string // executable-path hash that disambiguates exec() reuse
	Host    string
	Time    int64

	// METADATA fields.
	Exe      string
	Category string
	PPID     int
	UID      uint32
	GID      uint32
	Inode    uint64
	Size     int64
	Mode     uint32
	OwnerUID uint32
	OwnerGID uint32
	Atime    int64
	Mtime    int64
	Ctime    int64

	// List categories.
	Objects   []string
	Modules   []string
	Compilers []string
	Maps      []procfs.Region

	// Fuzzy hashes.
	FileH      string
	StringsH   string
	SymbolsH   string
	ObjectsH   string
	ModulesH   string
	CompilersH string
	MapsH      string

	// Python.
	Imports []string      // packages recovered from the memory map
	Script  *ScriptRecord // merged input-script row

	// MissingFields lists message types that arrived incomplete (chunk
	// loss); analyses treat those fields as partially trustworthy.
	MissingFields []string
}

// ExeName returns the basename of the executable path.
func (p *ProcessRecord) ExeName() string {
	if i := strings.LastIndexByte(p.Exe, '/'); i >= 0 {
		return p.Exe[i+1:]
	}
	return p.Exe
}

// Stats summarises a consolidation pass.
type Stats struct {
	Messages             int
	Records              int // reassembled logical records
	Processes            int
	ProcessesWithMissing int
	Jobs                 int
	JobsWithMissing      int
}

// AddJob folds one consolidated job into the summary — the single
// accumulation rule shared by the streaming pass and incremental consumers
// (the serving catalog) splicing carried jobs across refreshes, so both
// report identical Stats for identical records. messages is the job's
// stored wire messages, logical its reassembled record count.
func (s *Stats) AddJob(records []*ProcessRecord, messages, logical int) {
	s.Jobs++
	s.Messages += messages
	s.Records += logical
	jobMissing := false
	for _, r := range records {
		s.Processes++
		if len(r.MissingFields) > 0 {
			s.ProcessesWithMissing++
			jobMissing = true
		}
	}
	if jobMissing {
		s.JobsWithMissing++
	}
}

// Consolidate snapshots db and produces one ProcessRecord per process
// instance, sorted by (Time, JobID, PID, ExeHash) for determinism.
//
// Internally this rides the streaming, shard-parallel read path
// (ConsolidateSnapshot): the store is never materialised as one
// []wire.Message, and peak memory is bounded by the jobs in flight — one
// per store shard — plus the output records, instead of the whole store.
func Consolidate(db *sirendb.DB) ([]*ProcessRecord, Stats) {
	return ConsolidateSnapshot(db.Snapshot(), StreamOptions{})
}

// consolidateChunk consolidates one self-contained message subset into
// process records. "Self-contained" means every chunk and record of every
// process mentioned is inside msgs — true for the whole store, and equally
// true for any (job, host)-closed subset, because the grouping key below
// never crosses a job or a host. That closure is what lets the streaming
// path consolidate per (shard, job) segment and still produce exactly the
// records a whole-store pass would.
//
// Constructor and destructor messages of the same process carry different
// TIME values (data is collected at start-up *and* before termination), so
// records are grouped by the identity columns without TIME — JOBID, STEPID,
// PID, HASH, HOST — and sorted by time within each group. A *repeated*
// message type inside a group signals genuine PID reuse (a later process
// with the same PID and executable path) and starts a new process instance;
// exec()-style reuse within one second is already separated by the
// executable-path HASH column, per the paper.
//
// Records are returned in identity-group first-appearance order, with the
// derived Python imports already extracted.
func consolidateChunk(msgs []wire.Message) (out []*ProcessRecord, nRecords int) {
	records := wire.Reassemble(msgs)
	nRecords = len(records)

	identity := func(h wire.Header) string {
		return strings.Join([]string{h.JobID, h.StepID, strconv.Itoa(h.PID), h.Hash, h.Host}, "\x1f")
	}
	groups := make(map[string][]wire.Record)
	var order []string
	for _, rec := range records {
		k := identity(rec.Header)
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
			if p == nil || seen[tk] {
				h := rec.Header
				p = &ProcessRecord{
					JobID: h.JobID, StepID: h.StepID, PID: h.PID,
					ExeHash: h.Hash, Host: h.Host, Time: h.Time,
				}
				out = append(out, p)
				seen = make(map[string]bool)
			}
			seen[tk] = true
			if !rec.Complete {
				p.MissingFields = append(p.MissingFields, tk)
			}
			content := string(rec.Content)
			if rec.Header.Layer == wire.LayerScript {
				applyScript(p, rec.Header.Type, content)
				continue
			}
			applySelf(p, rec.Header.Type, content)
		}
	}

	// Derived: Python imports from interpreter memory maps.
	for _, p := range out {
		if p.Category == "python" && len(p.Maps) > 0 {
			p.Imports = pyenv.ExtractImports(p.Maps)
		}
	}
	return out, nRecords
}

// SortRecords orders records by (Time, JobID, PID, ExeHash) — the
// deterministic output order of every consolidation entry point. Exported
// so incremental consumers (the serving catalog) that splice per-job record
// sets across refresh passes can restore exactly the order a fresh
// whole-store consolidation would produce.
func SortRecords(out []*ProcessRecord) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.JobID != b.JobID {
			return a.JobID < b.JobID
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.ExeHash < b.ExeHash
	})
}

func applySelf(p *ProcessRecord, typ, content string) {
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
		p.Objects = splitLines(content)
	case wire.TypeModules:
		p.Modules = splitLines(content)
	case wire.TypeCompilers:
		p.Compilers = splitLines(content)
	case wire.TypeMaps:
		if regions, err := procfs.ParseMaps(content); err == nil {
			p.Maps = regions
		}
	case wire.TypeFileH:
		p.FileH = content
	case wire.TypeStringsH:
		p.StringsH = content
	case wire.TypeSymbolsH:
		p.SymbolsH = content
	case wire.TypeObjectsH:
		p.ObjectsH = content
	case wire.TypeModulesH:
		p.ModulesH = content
	case wire.TypeCompilersH:
		p.CompilersH = content
	case wire.TypeMapsH:
		p.MapsH = content
	}
}

func applyScript(p *ProcessRecord, typ, content string) {
	if p.Script == nil {
		p.Script = &ScriptRecord{}
	}
	switch typ {
	case wire.TypeMetadata:
		kv := parseKV(content)
		p.Script.Path = kv["EXE"]
		p.Script.Size = int64(atoi(kv["SIZE"]))
		p.Script.Mtime = int64(atoi(kv["MTIME"]))
		p.Script.Inode = uint64(atoi(kv["INODE"]))
	case wire.TypeFileH:
		p.Script.FileH = content
	}
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

func splitLines(content string) []string {
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

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

func atoiBase(s string, base int) uint64 {
	n, _ := strconv.ParseUint(s, base, 64)
	return n
}
