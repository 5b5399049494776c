// Package postprocess consolidates raw UDP messages from the database into
// one record per process — the paper's post-processing stage: chunk merging,
// type assembly, and folding Python-script rows into their parent
// interpreter rows — and derives the fields later analyses consume (e.g.
// imported Python packages recovered from interpreter memory maps).
//
// Two layers: stream.go walks a store snapshot shard-parallel and hands each
// (shard, job) segment to the kernel, consolidateChunk below, which every
// stored row passes through each time its job is consolidated. The kernel
// is therefore written to allocate per pass rather than per row, and never
// to build a string key out of header fields: those may contain any byte
// but '|', so only field-wise comparison tells two processes apart for
// certain. The implementation it replaced is kept in kernel_test.go as the
// oracle it must equal record for record.
package postprocess

import (
	"cmp"
	"slices"
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

// identity is the grouping key of one process across its messages: the
// identity columns without TIME. A comparable struct rather than the fields
// joined with a separator: header values may contain any byte but '|', so a
// joined key can make two processes collide (and hand one the other's
// FILE_H), and building it costs an allocation per record.
type identity struct {
	jobID, stepID string
	pid           int
	hash, host    string
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
//
// Every stored row passes through here each time its job is consolidated,
// so the grouping allocates per pass, not per record or per process: records
// are numbered by identity group in one sweep (a record that continues the
// previous record's identity skips the map), placed group-contiguous by a
// counting pass, and each group's slice of record numbers is time-sorted
// only when it is not already in time order. Every step is linear in the
// records (the sort O(n log n) in a disordered group), whatever the mix of
// identities, types and chunks.
func consolidateChunk(msgs []wire.Message) (out []*ProcessRecord, nRecords int) {
	records := wire.Reassemble(msgs)
	nRecords = len(records)
	if nRecords == 0 {
		return nil, 0
	}

	groupOf := make([]int32, len(records)) // record -> identity group, first-appearance numbered
	var sizes []int32                      // identity group -> record count
	index := make(map[identity]int32)
	var lastID identity
	last := int32(-1)
	for i := range records {
		h := &records[i].Header
		id := identity{h.JobID, h.StepID, h.PID, h.Hash, h.Host}
		if last < 0 || id != lastID {
			g, ok := index[id]
			if !ok {
				g = int32(len(sizes))
				index[id] = g
				sizes = append(sizes, 0)
			}
			last, lastID = g, id
		}
		groupOf[i] = last
		sizes[last]++
	}
	// Counting placement: turn the sizes into each group's start offset, then
	// drop every record number at its group's cursor. order then holds the
	// record numbers group by group, each group in arrival order, and ends[g]
	// — the advanced cursor — is where group g's stretch of it stops.
	ends := sizes
	n := int32(0)
	for g, size := range sizes {
		ends[g] = n
		n += size
	}
	order := make([]int32, len(records))
	for i, g := range groupOf {
		order[ends[g]] = int32(i)
		ends[g]++
	}

	byTime := func(a, b int32) int { return cmp.Compare(records[a].Header.Time, records[b].Header.Time) }
	out = make([]*ProcessRecord, 0, len(ends))
	begin := int32(0)
	for _, end := range ends {
		group := order[begin:end]
		begin = end
		if !slices.IsSortedFunc(group, byTime) {
			slices.SortStableFunc(group, byTime)
		}
		var p *ProcessRecord
		var seen typeSet
		for _, ri := range group {
			rec := &records[ri]
			h := &rec.Header
			if p == nil || seen.has(h.Layer, h.Type) {
				p = &ProcessRecord{
					JobID: h.JobID, StepID: h.StepID, PID: h.PID,
					ExeHash: h.Hash, Host: h.Host, Time: h.Time,
				}
				out = append(out, p)
				seen = typeSet{}
			}
			seen.add(h.Layer, h.Type)
			if !rec.Complete {
				p.MissingFields = append(p.MissingFields, h.Layer+":"+h.Type)
			}
			content := string(rec.Content)
			if h.Layer == wire.LayerScript {
				applyScript(p, h.Type, content)
				continue
			}
			applySelf(p, h.Type, content)
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

// typeSet is the set of LAYER:TYPE pairs one process instance has shown so
// far — a repeat means the PID was reused. The pairs the collector sends are
// a bit each; anything else (a newer collector, a hostile sender) goes to a
// map allocated on first need, so a flood of distinct unknown types stays
// linear where a list would be scanned once per record.
type typeSet struct {
	known uint32
	other map[[2]string]struct{}
}

// typeBit maps a collector LAYER:TYPE pair to its bit of typeSet.known.
func typeBit(layer, typ string) (uint32, bool) {
	var bit uint32
	switch typ {
	case wire.TypeMetadata:
		bit = 1 << 0
	case wire.TypeObjects:
		bit = 1 << 1
	case wire.TypeModules:
		bit = 1 << 2
	case wire.TypeCompilers:
		bit = 1 << 3
	case wire.TypeMaps:
		bit = 1 << 4
	case wire.TypeFileH:
		bit = 1 << 5
	case wire.TypeStringsH:
		bit = 1 << 6
	case wire.TypeSymbolsH:
		bit = 1 << 7
	case wire.TypeObjectsH:
		bit = 1 << 8
	case wire.TypeModulesH:
		bit = 1 << 9
	case wire.TypeCompilersH:
		bit = 1 << 10
	case wire.TypeMapsH:
		bit = 1 << 11
	default:
		return 0, false
	}
	switch layer {
	case wire.LayerSelf:
		return bit, true
	case wire.LayerScript:
		return bit << 12, true
	}
	return 0, false
}

func (s *typeSet) has(layer, typ string) bool {
	if bit, ok := typeBit(layer, typ); ok {
		return s.known&bit != 0
	}
	_, ok := s.other[[2]string{layer, typ}]
	return ok
}

func (s *typeSet) add(layer, typ string) {
	if bit, ok := typeBit(layer, typ); ok {
		s.known |= bit
		return
	}
	if s.other == nil {
		s.other = make(map[[2]string]struct{})
	}
	s.other[[2]string{layer, typ}] = struct{}{}
}

// CompareRecords orders two records by (Time, JobID, PID, ExeHash) — the
// key of SortRecords, exported for incremental consumers (the serving
// catalog) that merge already-ordered record sets instead of re-sorting.
// It is not a total order: one PID on two hosts of a job, or in two steps,
// compares equal. Equal records always share a JobID, though, so their
// relative order can be taken from the job's own record order.
func CompareRecords(a, b *ProcessRecord) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := strings.Compare(a.JobID, b.JobID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.PID, b.PID); c != 0 {
		return c
	}
	return strings.Compare(a.ExeHash, b.ExeHash)
}

// SortRecords orders records by CompareRecords — the deterministic output
// order of every consolidation entry point. The sort is stable: records
// that compare equal belong to one job and keep the order they have in it,
// so the result depends only on each job's own record order (which a
// consolidation pass fixes), never on how jobs were interleaved on input —
// a full pass's fan-in order and an incremental catalog's merge agree
// element by element.
func SortRecords(out []*ProcessRecord) {
	slices.SortStableFunc(out, CompareRecords)
}

func applySelf(p *ProcessRecord, typ, content string) {
	switch typ {
	case wire.TypeMetadata:
		// A process instance sees each LAYER:TYPE once, but any LAYER other
		// than SCRIPT lands here, so an unknown layer can bring a second
		// METADATA. It replaces the first whole — absent keys become zero —
		// exactly as assigning every field from a key→value lookup did.
		p.Exe, p.Category = "", ""
		p.PPID, p.UID, p.GID, p.Inode, p.Size, p.Mode = 0, 0, 0, 0, 0, 0
		p.OwnerUID, p.OwnerGID, p.Atime, p.Mtime, p.Ctime = 0, 0, 0, 0, 0
		eachKV(content, func(k, v string) {
			switch k {
			case "EXE":
				p.Exe = v
			case "CATEGORY":
				p.Category = v
			case "PPID":
				p.PPID = atoi(v)
			case "UID":
				p.UID = uint32(atoi(v))
			case "GID":
				p.GID = uint32(atoi(v))
			case "INODE":
				p.Inode = uint64(atoi(v))
			case "SIZE":
				p.Size = int64(atoi(v))
			case "MODE":
				p.Mode = uint32(atoiBase(v, 8))
			case "OWNER_UID":
				p.OwnerUID = uint32(atoi(v))
			case "OWNER_GID":
				p.OwnerGID = uint32(atoi(v))
			case "ATIME":
				p.Atime = int64(atoi(v))
			case "MTIME":
				p.Mtime = int64(atoi(v))
			case "CTIME":
				p.Ctime = int64(atoi(v))
			}
		})
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
		eachKV(content, func(k, v string) {
			switch k {
			case "EXE":
				p.Script.Path = v
			case "SIZE":
				p.Script.Size = int64(atoi(v))
			case "MTIME":
				p.Script.Mtime = int64(atoi(v))
			case "INODE":
				p.Script.Inode = uint64(atoi(v))
			}
		})
	case wire.TypeFileH:
		p.Script.FileH = content
	}
}

// eachKV calls set for every KEY=VALUE line of a METADATA payload, split at
// the line's first '='; lines without a key ("=x", or no '=' at all) are
// skipped. Walking the lines into zeroed fields assigns exactly what a
// key→value map lookup would: a repeated key keeps its last value, an absent
// one is zero.
func eachKV(content string, set func(k, v string)) {
	for content != "" {
		var line string
		line, content = cutLine(content)
		if i := strings.IndexByte(line, '='); i > 0 {
			set(line[:i], line[i+1:])
		}
	}
}

// cutLine splits content at its first newline.
func cutLine(content string) (line, rest string) {
	if i := strings.IndexByte(content, '\n'); i >= 0 {
		return content[:i], content[i+1:]
	}
	return content, ""
}

// splitLines returns the non-empty lines of content, nil when there are
// none, in a slice sized by counting them first.
func splitLines(content string) []string {
	n := 0
	for rest := content; rest != ""; {
		var line string
		if line, rest = cutLine(rest); line != "" {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for rest := content; rest != ""; {
		var line string
		if line, rest = cutLine(rest); line != "" {
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
