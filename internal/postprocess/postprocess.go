// Package postprocess consolidates raw UDP messages from the database into
// one record per process — the paper's post-processing stage: chunk merging,
// type assembly, and folding Python-script rows into their parent
// interpreter rows — and derives the fields later analyses consume (e.g.
// imported Python packages recovered from interpreter memory maps).
//
// Two layers: stream.go walks a store snapshot job-parallel and hands each
// job's rows, as views of the datagrams the store holds, to the kernel
// below, which every stored row passes through each time its job is
// consolidated. The kernel is therefore written to allocate
// per pass or per process rather than per row, and never to build a string
// key by joining header fields: those may contain any byte but '|', so only
// the fields themselves — or the canonical header bytes, which parse field
// for field — tell two processes apart for certain. The implementation it
// replaced, over decoded Messages, is kept in kernel_test.go as the oracle it
// must equal record for record.
package postprocess

import (
	"bytes"
	"cmp"
	"slices"
	"strconv"
	"strings"
	"unsafe"

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
//
// A record is read-only once consolidated. Its list fields Objects,
// Modules and Compilers may be one slice shared by every record of equal
// content, so writing an element of one writes them all.
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

	// Fuzzy hashes.
	FileH      string
	StringsH   string
	SymbolsH   string
	ObjectsH   string
	ModulesH   string
	CompilersH string
	MapsH      string

	// Python.
	Imports []string      // packages recovered from the memory map (MAPS)
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
	// Messages counts the distinct (record, Seq) chunks consolidated: a row
	// stored twice — a failover copy merged back beside the full stream, a
	// re-sent datagram — counts once. On a store without duplicates it is the
	// row count.
	Messages             int
	Records              int // reassembled logical records
	Processes            int
	ProcessesWithMissing int
	Jobs                 int
	JobsWithMissing      int
	// ChunkConflicts counts the repeated chunks whose bytes differ from the
	// chunk that replaced them. Duplicates from failover are exact copies,
	// so a nonzero count means two senders produced different data under
	// one record's header: a misconfigured roster or colliding campaigns.
	ChunkConflicts int
}

// AddJob folds one consolidated job into the summary — the single
// accumulation rule shared by the streaming pass and incremental consumers
// (the serving catalog) splicing carried jobs across refreshes, so both
// report identical Stats for identical records.
func (s *Stats) AddJob(j JobRecords) {
	s.Jobs++
	s.Messages += j.Messages
	s.Records += j.Reassembled
	s.ChunkConflicts += j.ChunkConflicts
	jobMissing := false
	for _, r := range j.Records {
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
// instance, sorted by CompareRecords for determinism.
//
// Internally this rides the streaming, job-parallel read path
// (ConsolidateSnapshot): the store is never materialised as one
// []wire.Message, and peak memory is bounded by the jobs in flight — one
// per worker — plus the output records, instead of the whole store.
func Consolidate(db *sirendb.DB) ([]*ProcessRecord, Stats) {
	return ConsolidateSnapshot(db.Snapshot(), StreamOptions{})
}

// kernel is the consolidation kernel with its working memory — the
// reassembly, the joined content and the group placement — kept from one
// job to the next, so a worker allocates for a job only what the job's
// records keep, its identity map and what is larger than any job before it.
// The identity map stays the job's own: a map the kernel held would live on
// the heap, where a job's own small map lives on the stack, and a catalog
// refresh of one small job would pay for it. The caches (intern.go) outlive
// the job too: they are what lets a record keep only what earlier records
// did not. A kernel is not safe for concurrent use; its zero value is ready.
type kernel struct {
	reassembler wire.Reassembler
	joined      []byte  // multi-chunk records' content, joined
	groupOf     []int32 // record -> identity group, first-appearance numbered
	order       []int32 // record numbers, group by group
	sizes       []int32 // identity group -> record count, then its end in order
	ids         []string
	maps        []string // the current process's MAPS contents, views
	caches
}

// consolidate consolidates one self-contained set of stored rows into
// process records. "Self-contained" means every chunk and record of every
// process mentioned is among the rows — true for the whole store, and equally
// true for any (job, host)-closed subset, because the grouping key below
// never crosses a job or a host. That closure is what lets the streaming
// path consolidate job by job and still produce exactly the records a
// whole-store pass would.
//
// A row repeated among the rows — the same chunk stored twice — replaces
// its first copy in reassembly (wire.Reassemble), so duplicates change no
// record; the result counts each distinct chunk once in Messages and each
// replaced chunk whose bytes differ in ChunkConflicts.
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
// Rows are the canonical datagrams the store holds, so a process identity is
// a byte string: the datagram up to the end of the HOST value, the five
// identity fields in wire order and nothing else, equal exactly when the
// fields are (wire.Reassemble keys records the same way, up to TYPE).
//
// Records are returned in identity-group first-appearance order, with the
// derived Python imports already extracted. Nothing they hold points into
// the rows: every row may be a view of a run mapping that is unmapped once
// its snapshot is garbage, or of a head chunk that a kept view would pin
// whole.
//
// Every stored row passes through here each time its job is consolidated,
// so the grouping allocates per pass or per process, never per row: records
// are numbered by identity group in one sweep (a record that continues the
// previous record's identity skips the map), placed group-contiguous by a
// counting pass, and each group's slice of record numbers is time-sorted
// only when it is not already in time order. A group's identity is made a
// string once, and its JOBID, STEPID, HASH and HOST are cut from it; LAYER
// and TYPE are the wire constants. A record's content is read where it lies
// — a view of its one chunk, or of its chunks joined into the kernel's
// scratch — and what a process record keeps of it is copied out through the
// kernel's caches (intern.go), so records share one copy of each repeated
// string and list. The process records are one slice, one per identity
// group, with only a reused PID's later instances allocated apart. Every
// step is linear in the records (the sort O(n log n) in a disordered group),
// whatever the mix of identities, types and chunks. The records handed back
// share no memory with k's scratch, which the next call reuses.
func (k *kernel) consolidate(rows []wire.Scanned) JobRecords {
	records := k.reassembler.Reassemble(rows)
	if len(records) == 0 {
		return JobRecords{}
	}

	jr := JobRecords{Reassembled: len(records)}
	for i := range records {
		jr.Messages += records[i].Chunks()
		jr.ChunkConflicts += records[i].Conflicts()
	}
	// The scratch collects the multi-chunk records' content, joined. An
	// append writes only past the end, and growing leaves the old array as
	// it was, so a view of the scratch stays valid for the whole call.
	k.joined = k.joined[:0]

	k.groupOf = reuse(k.groupOf, len(records))
	groupOf, sizes, ids := k.groupOf, k.sizes[:0], k.ids[:0]
	index := make(map[string]int32)
	var lastID []byte
	last := int32(-1)
	for i := range records {
		r := records[i].Row
		id := r.Datagram[:r.Values[wire.FieldHost].Hi]
		if last < 0 || !bytes.Equal(id, lastID) {
			g, ok := index[string(id)]
			if !ok {
				g = int32(len(sizes))
				s := string(id)
				index[s] = g
				ids = append(ids, s)
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
	k.order = reuse(k.order, len(records))
	order := k.order
	for i, g := range groupOf {
		order[ends[g]] = int32(i)
		ends[g]++
	}

	k.sizes, k.ids = sizes, ids
	byTime := func(a, b int32) int { return cmp.Compare(records[a].Row.Time, records[b].Row.Time) }
	procs := make([]ProcessRecord, len(ends)) // each group's first process instance
	out := make([]*ProcessRecord, 0, len(ends))
	begin := int32(0)
	for g, end := range ends {
		group := order[begin:end]
		begin = end
		if !slices.IsSortedFunc(group, byTime) {
			slices.SortStableFunc(group, byTime)
		}
		id := ids[g]
		v := &records[group[0]].Row.Values // one identity: one place for its values
		jobID, stepID := id[v[wire.FieldJobID].Lo:v[wire.FieldJobID].Hi], id[v[wire.FieldStepID].Lo:v[wire.FieldStepID].Hi]
		hash, host := id[v[wire.FieldHash].Lo:v[wire.FieldHash].Hi], id[v[wire.FieldHost].Lo:v[wire.FieldHost].Hi]
		var p *ProcessRecord
		var seen typeSet
		for _, ri := range group {
			rec := &records[ri]
			r := rec.Row
			layer := wire.ValueString(r.Value(r.Datagram, wire.FieldLayer))
			typ := wire.ValueString(r.Value(r.Datagram, wire.FieldType))
			if p == nil || seen.has(layer, typ) {
				if p == nil {
					p = &procs[g]
				} else {
					k.finish(p)
					p = new(ProcessRecord)
				}
				*p = ProcessRecord{
					JobID: jobID, StepID: stepID, PID: r.PID,
					ExeHash: hash, Host: host, Time: r.Time,
				}
				out = append(out, p)
				seen = typeSet{}
			}
			seen.add(layer, typ)
			if !rec.Complete {
				p.MissingFields = append(p.MissingFields, layer+":"+typ)
			}
			b, ok := rec.Single()
			if !ok {
				lo := len(k.joined)
				k.joined = rec.AppendContent(k.joined)
				b = k.joined[lo:]
			}
			content := unsafe.String(unsafe.SliceData(b), len(b)) // read here, never kept
			switch {
			case layer == wire.LayerScript:
				k.applyScript(p, typ, content)
			case typ == wire.TypeMaps:
				k.maps = append(k.maps, content)
			default:
				k.applySelf(p, typ, content)
			}
		}
		k.finish(p)
	}
	jr.Records = out
	clear(ids) // the identities are the records' strings: the kernel keeps none
	return jr
}

// finish completes process p once its last record is applied: a Python
// interpreter's imports come from the last of its MAPS that parses (none
// when that one maps nothing), copied out through the string cache. The
// kernel then forgets the MAPS, which are views of the rows.
func (k *kernel) finish(p *ProcessRecord) {
	if p.Category == "python" {
		for i := len(k.maps) - 1; i >= 0; i-- {
			regions, err := procfs.ParseMaps(k.maps[i])
			if err != nil {
				continue
			}
			if len(regions) > 0 {
				p.Imports = pyenv.ExtractImports(regions)
				for j, s := range p.Imports {
					p.Imports[j] = k.str(s)
				}
			}
			break
		}
	}
	clear(k.maps)
	k.maps = k.maps[:0]
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

// CompareRecords orders two records by (Time, JobID, PID, ExeHash, Host,
// StepID) — the key of SortRecords, exported for incremental consumers (the
// serving catalog) that merge already-ordered record sets instead of
// re-sorting. Records of one consolidation never compare equal: one identity
// (JobID, StepID, PID, ExeHash, Host) starts a second process instance only
// at a later Time. So the order does not depend on the order in which a
// job's rows arrived, nor on rows stored twice.
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
	if c := strings.Compare(a.ExeHash, b.ExeHash); c != 0 {
		return c
	}
	if c := strings.Compare(a.Host, b.Host); c != 0 {
		return c
	}
	return strings.Compare(a.StepID, b.StepID)
}

// SortRecords orders records by CompareRecords — the deterministic output
// order of every consolidation entry point. The order is total, so a full
// pass's job order and an incremental catalog's merge agree element by
// element.
func SortRecords(out []*ProcessRecord) {
	slices.SortFunc(out, CompareRecords)
}

// applySelf applies one record of a layer other than SCRIPT, MAPS aside
// (the kernel holds those for finish). Every string kept is copied out.
func (k *kernel) applySelf(p *ProcessRecord, typ, content string) {
	switch typ {
	case wire.TypeMetadata:
		// A process instance sees each LAYER:TYPE once, but any LAYER other
		// than SCRIPT lands here, so an unknown layer can bring a second
		// METADATA. It replaces the first whole — absent keys become zero —
		// exactly as assigning every field from a key→value lookup did.
		p.Exe, p.Category = "", ""
		p.PPID, p.UID, p.GID, p.Inode, p.Size, p.Mode = 0, 0, 0, 0, 0, 0
		p.OwnerUID, p.OwnerGID, p.Atime, p.Mtime, p.Ctime = 0, 0, 0, 0, 0
		eachKV(content, func(key, v string) {
			switch key {
			case "EXE":
				p.Exe = k.str(v)
			case "CATEGORY":
				p.Category = k.str(v)
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
		p.Objects = k.list(content)
	case wire.TypeModules:
		p.Modules = k.list(content)
	case wire.TypeCompilers:
		p.Compilers = k.list(content)
	case wire.TypeFileH:
		p.FileH = k.str(content)
	case wire.TypeStringsH:
		p.StringsH = k.str(content)
	case wire.TypeSymbolsH:
		p.SymbolsH = k.str(content)
	case wire.TypeObjectsH:
		p.ObjectsH = k.str(content)
	case wire.TypeModulesH:
		p.ModulesH = k.str(content)
	case wire.TypeCompilersH:
		p.CompilersH = k.str(content)
	case wire.TypeMapsH:
		p.MapsH = k.str(content)
	}
}

// applyScript applies one SCRIPT-layer record to p's input script.
func (k *kernel) applyScript(p *ProcessRecord, typ, content string) {
	if p.Script == nil {
		p.Script = &ScriptRecord{}
	}
	switch typ {
	case wire.TypeMetadata:
		eachKV(content, func(key, v string) {
			switch key {
			case "EXE":
				p.Script.Path = k.str(v)
			case "SIZE":
				p.Script.Size = int64(atoi(v))
			case "MTIME":
				p.Script.Mtime = int64(atoi(v))
			case "INODE":
				p.Script.Inode = uint64(atoi(v))
			}
		})
	case wire.TypeFileH:
		p.Script.FileH = k.str(content)
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

// reuse returns s at length n: s itself while its capacity suffices, else a
// new slice of exactly n. The elements keep whatever they held.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

func atoiBase(s string, base int) uint64 {
	n, _ := strconv.ParseUint(s, base, 64)
	return n
}
