package analysis

import (
	"fmt"
	"sort"
	"strings"

	"siren/internal/postprocess"
	"siren/internal/toolchain"
)

// Dataset wraps consolidated process records with the user anonymisation
// the paper applies (UIDs become user_1, user_2, … by first appearance).
type Dataset struct {
	Records []*postprocess.ProcessRecord
	users   map[uint32]string
}

// NewDataset builds a dataset, assigning anonymous user names (user_1,
// user_2, …) to UIDs in ascending UID order. The paper anonymises by random
// assignment; ordering by UID keeps the mapping deterministic regardless of
// record interleaving.
func NewDataset(records []*postprocess.ProcessRecord) *Dataset {
	d := &Dataset{Records: records, users: make(map[uint32]string)}
	var uids []uint32
	seen := make(map[uint32]bool)
	for _, r := range records {
		if !seen[r.UID] {
			seen[r.UID] = true
			uids = append(uids, r.UID)
		}
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	for i, uid := range uids {
		d.users[uid] = fmt.Sprintf("user_%d", i+1)
	}
	return d
}

// ConsolidateDataset consolidates a store snapshot through the streaming,
// job-parallel read path and wraps the records in a Dataset — the
// analysis-side entry point for whole-campaign group-bys. The store is
// never materialised as one []wire.Message; only the consolidated process
// records (what the tables and figures actually consume) are held. The
// snapshot may be a single store's (DB.Snapshot) or the merged view of an
// N-receiver deployment (DBSet.Snapshot) — one *sirendb.Snapshot type, and
// the analysis is identical either way. opts tune the streaming pass (worker count, job
// filter); the zero value is the default.
func ConsolidateDataset(snap postprocess.SnapshotView, opts postprocess.StreamOptions) (*Dataset, postprocess.Stats) {
	records, stats := postprocess.ConsolidateSnapshot(snap, opts)
	return NewDataset(records), stats
}

// UserName returns the anonymised name for a UID.
func (d *Dataset) UserName(uid uint32) string {
	if n, ok := d.users[uid]; ok {
		return n
	}
	return fmt.Sprintf("uid_%d", uid)
}

// Users returns all anonymised user names, sorted.
func (d *Dataset) Users() []string {
	out := make([]string, 0, len(d.users))
	for _, n := range d.users {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Table 2: users, jobs, processes.

// UserStat is one Table 2 row.
type UserStat struct {
	User        string
	Jobs        int
	SystemProcs int
	UserProcs   int
	PythonProcs int
	TotalProcs  int
}

// UserStats computes Table 2: per user, job count and process counts per
// category, sorted by jobs desc, then system/user/python process counts.
func (d *Dataset) UserStats() []UserStat {
	type acc struct {
		jobs         map[string]bool
		sys, usr, py int
	}
	byUser := make(map[string]*acc)
	for _, r := range d.Records {
		name := d.UserName(r.UID)
		a, ok := byUser[name]
		if !ok {
			a = &acc{jobs: make(map[string]bool)}
			byUser[name] = a
		}
		a.jobs[r.JobID] = true
		switch r.Category {
		case "system":
			a.sys++
		case "python":
			a.py++
		default:
			a.usr++
		}
	}
	out := make([]UserStat, 0, len(byUser))
	for name, a := range byUser {
		out = append(out, UserStat{
			User: name, Jobs: len(a.jobs),
			SystemProcs: a.sys, UserProcs: a.usr, PythonProcs: a.py,
			TotalProcs: a.sys + a.usr + a.py,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Jobs != b.Jobs {
			return a.Jobs > b.Jobs
		}
		if a.SystemProcs != b.SystemProcs {
			return a.SystemProcs > b.SystemProcs
		}
		if a.UserProcs != b.UserProcs {
			return a.UserProcs > b.UserProcs
		}
		if a.PythonProcs != b.PythonProcs {
			return a.PythonProcs > b.PythonProcs
		}
		return a.User < b.User
	})
	return out
}

// ---------------------------------------------------------------------------
// Table 3: top system-directory executables.

// ExeStat is one Table 3 row.
type ExeStat struct {
	Path           string
	UniqueUsers    int
	Jobs           int
	Processes      int
	UniqueObjectsH int
}

// TopSystemExecutables computes Table 3: system-directory executables ranked
// by unique users, jobs, processes, and unique OBJECTS_H. topN <= 0 returns
// all.
func (d *Dataset) TopSystemExecutables(topN int) []ExeStat {
	type acc struct {
		users, jobs, objH map[string]bool
		procs             int
	}
	byExe := make(map[string]*acc)
	for _, r := range d.Records {
		if r.Category != "system" {
			continue
		}
		a, ok := byExe[r.Exe]
		if !ok {
			a = &acc{users: map[string]bool{}, jobs: map[string]bool{}, objH: map[string]bool{}}
			byExe[r.Exe] = a
		}
		a.users[d.UserName(r.UID)] = true
		a.jobs[r.JobID] = true
		a.procs++
		if r.ObjectsH != "" {
			a.objH[r.ObjectsH] = true
		}
	}
	out := make([]ExeStat, 0, len(byExe))
	for exe, a := range byExe {
		out = append(out, ExeStat{Path: exe, UniqueUsers: len(a.users), Jobs: len(a.jobs),
			Processes: a.procs, UniqueObjectsH: len(a.objH)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.UniqueUsers != b.UniqueUsers {
			return a.UniqueUsers > b.UniqueUsers
		}
		if a.Jobs != b.Jobs {
			return a.Jobs > b.Jobs
		}
		if a.Processes != b.Processes {
			return a.Processes > b.Processes
		}
		if a.UniqueObjectsH != b.UniqueObjectsH {
			return a.UniqueObjectsH > b.UniqueObjectsH
		}
		return a.Path < b.Path
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// SystemExecutableCount reports how many distinct system-directory
// executables appear in the dataset (the paper reports 112).
func (d *Dataset) SystemExecutableCount() int {
	seen := make(map[string]bool)
	for _, r := range d.Records {
		if r.Category == "system" {
			seen[r.Exe] = true
		}
	}
	return len(seen)
}

// ---------------------------------------------------------------------------
// Table 4: deviating shared-library sets of one executable.

// ObjectSetStat is one Table 4 row: a distinct loaded-objects set of an
// executable and how many processes ran with it.
type ObjectSetStat struct {
	Objects   []string
	Processes int
}

// LibraryVariant extracts the path of the first loaded object whose basename
// starts with prefix ("libtinfo", "libm"), or "–" when absent — the Table 4
// presentation.
func (s ObjectSetStat) LibraryVariant(prefix string) string {
	for _, o := range s.Objects {
		base := o
		if i := strings.LastIndexByte(o, '/'); i >= 0 {
			base = o[i+1:]
		}
		if strings.HasPrefix(base, prefix) {
			return o
		}
	}
	return "–"
}

// DeviatingLibraries computes Table 4 for one executable path: its distinct
// loaded-objects sets sorted by descending process count.
func (d *Dataset) DeviatingLibraries(exePath string) []ObjectSetStat {
	counts := make(map[string]int)
	sets := make(map[string][]string)
	for _, r := range d.Records {
		if r.Exe != exePath || len(r.Objects) == 0 {
			continue
		}
		key := strings.Join(r.Objects, "\n")
		counts[key]++
		sets[key] = r.Objects
	}
	out := make([]ObjectSetStat, 0, len(counts))
	for k, n := range counts {
		out = append(out, ObjectSetStat{Objects: sets[k], Processes: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Processes != out[j].Processes {
			return out[i].Processes > out[j].Processes
		}
		return strings.Join(out[i].Objects, ",") < strings.Join(out[j].Objects, ",")
	})
	return out
}

// ---------------------------------------------------------------------------
// Table 5: derived labels for user applications.

// LabelStat is one Table 5 row.
type LabelStat struct {
	Label       string
	UniqueUsers int
	Jobs        int
	Processes   int
	UniqueFileH int
}

// DeriveLabels computes Table 5 over user-category records.
func (d *Dataset) DeriveLabels() []LabelStat {
	type acc struct {
		users, jobs, fileH map[string]bool
		procs              int
	}
	byLabel := make(map[string]*acc)
	for _, r := range d.Records {
		if r.Category != "user" {
			continue
		}
		label := DeriveLabel(r.Exe)
		a, ok := byLabel[label]
		if !ok {
			a = &acc{users: map[string]bool{}, jobs: map[string]bool{}, fileH: map[string]bool{}}
			byLabel[label] = a
		}
		a.users[d.UserName(r.UID)] = true
		a.jobs[r.JobID] = true
		a.procs++
		if r.FileH != "" {
			a.fileH[r.FileH] = true
		}
	}
	out := make([]LabelStat, 0, len(byLabel))
	for label, a := range byLabel {
		out = append(out, LabelStat{Label: label, UniqueUsers: len(a.users), Jobs: len(a.jobs),
			Processes: a.procs, UniqueFileH: len(a.fileH)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.UniqueUsers != b.UniqueUsers {
			return a.UniqueUsers > b.UniqueUsers
		}
		if a.Jobs != b.Jobs {
			return a.Jobs > b.Jobs
		}
		if a.Processes != b.Processes {
			return a.Processes > b.Processes
		}
		if a.UniqueFileH != b.UniqueFileH {
			return a.UniqueFileH > b.UniqueFileH
		}
		return a.Label < b.Label
	})
	return out
}

// ---------------------------------------------------------------------------
// Table 6: compiler combinations of user applications.

// CompilerStat is one Table 6 row.
type CompilerStat struct {
	Compilers   string // comma-joined "Name [Prov]" labels
	UniqueUsers int
	Jobs        int
	Processes   int
	UniqueFileH int
}

// CompilerComboOf renders a record's compiler list as the Table 6 key.
func CompilerComboOf(compilers []string) string {
	var labels []string
	seen := make(map[string]bool)
	for _, c := range compilers {
		l := toolchain.ParseCommentLabel(c)
		if !seen[l] {
			seen[l] = true
			labels = append(labels, l)
		}
	}
	return strings.Join(labels, ", ")
}

// CompilerTable computes Table 6 over user-category records that carry
// compiler information.
func (d *Dataset) CompilerTable() []CompilerStat {
	type acc struct {
		users, jobs, fileH map[string]bool
		procs              int
	}
	byCombo := make(map[string]*acc)
	for _, r := range d.Records {
		if r.Category != "user" || len(r.Compilers) == 0 {
			continue
		}
		combo := CompilerComboOf(r.Compilers)
		a, ok := byCombo[combo]
		if !ok {
			a = &acc{users: map[string]bool{}, jobs: map[string]bool{}, fileH: map[string]bool{}}
			byCombo[combo] = a
		}
		a.users[d.UserName(r.UID)] = true
		a.jobs[r.JobID] = true
		a.procs++
		if r.FileH != "" {
			a.fileH[r.FileH] = true
		}
	}
	out := make([]CompilerStat, 0, len(byCombo))
	for combo, a := range byCombo {
		out = append(out, CompilerStat{Compilers: combo, UniqueUsers: len(a.users), Jobs: len(a.jobs),
			Processes: a.procs, UniqueFileH: len(a.fileH)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.UniqueUsers != b.UniqueUsers {
			return a.UniqueUsers > b.UniqueUsers
		}
		if a.Jobs != b.Jobs {
			return a.Jobs > b.Jobs
		}
		if a.Processes != b.Processes {
			return a.Processes > b.Processes
		}
		if a.UniqueFileH != b.UniqueFileH {
			return a.UniqueFileH > b.UniqueFileH
		}
		return a.Compilers < b.Compilers
	})
	return out
}

// ---------------------------------------------------------------------------
// Table 8: Python interpreters.

// InterpreterStat is one Table 8 row.
type InterpreterStat struct {
	Interpreter   string // executable basename, e.g. "python3.10"
	UniqueUsers   int
	Jobs          int
	Processes     int
	UniqueScriptH int
}

// PythonInterpreters computes Table 8 over python-category records.
func (d *Dataset) PythonInterpreters() []InterpreterStat {
	type acc struct {
		users, jobs, scriptH map[string]bool
		procs                int
	}
	byExe := make(map[string]*acc)
	for _, r := range d.Records {
		if r.Category != "python" {
			continue
		}
		name := r.ExeName()
		a, ok := byExe[name]
		if !ok {
			a = &acc{users: map[string]bool{}, jobs: map[string]bool{}, scriptH: map[string]bool{}}
			byExe[name] = a
		}
		a.users[d.UserName(r.UID)] = true
		a.jobs[r.JobID] = true
		a.procs++
		if r.Script != nil && r.Script.FileH != "" {
			a.scriptH[r.Script.FileH] = true
		}
	}
	out := make([]InterpreterStat, 0, len(byExe))
	for name, a := range byExe {
		out = append(out, InterpreterStat{Interpreter: name, UniqueUsers: len(a.users),
			Jobs: len(a.jobs), Processes: a.procs, UniqueScriptH: len(a.scriptH)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.UniqueUsers != b.UniqueUsers {
			return a.UniqueUsers > b.UniqueUsers
		}
		if a.Jobs != b.Jobs {
			return a.Jobs > b.Jobs
		}
		if a.Processes != b.Processes {
			return a.Processes > b.Processes
		}
		if a.UniqueScriptH != b.UniqueScriptH {
			return a.UniqueScriptH > b.UniqueScriptH
		}
		return a.Interpreter < b.Interpreter
	})
	return out
}

// ---------------------------------------------------------------------------
// Figure 2: derived+filtered shared objects of user applications.

// LibraryTagStat is one Figure 2 bar group.
type LibraryTagStat struct {
	Tag               string
	UniqueUsers       int
	Jobs              int
	Processes         int
	UniqueExecutables int
}

// DerivedLibraries computes Figure 2 over user-category records: per derived
// library tag, the count of unique users, jobs, processes, and unique
// executables (by FILE_H). Sorted by unique users desc, then jobs desc.
func (d *Dataset) DerivedLibraries() []LibraryTagStat {
	type acc struct {
		users, jobs, exes map[string]bool
		procs             int
	}
	byTag := make(map[string]*acc)
	for _, r := range d.Records {
		if r.Category != "user" {
			continue
		}
		for _, tag := range DeriveLibraryTags(r.Objects) {
			a, ok := byTag[tag]
			if !ok {
				a = &acc{users: map[string]bool{}, jobs: map[string]bool{}, exes: map[string]bool{}}
				byTag[tag] = a
			}
			a.users[d.UserName(r.UID)] = true
			a.jobs[r.JobID] = true
			a.procs++
			exeKey := r.FileH
			if exeKey == "" {
				exeKey = r.Exe
			}
			a.exes[exeKey] = true
		}
	}
	out := make([]LibraryTagStat, 0, len(byTag))
	for tag, a := range byTag {
		out = append(out, LibraryTagStat{Tag: tag, UniqueUsers: len(a.users), Jobs: len(a.jobs),
			Processes: a.procs, UniqueExecutables: len(a.exes)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.UniqueUsers != b.UniqueUsers {
			return a.UniqueUsers > b.UniqueUsers
		}
		if a.Jobs != b.Jobs {
			return a.Jobs > b.Jobs
		}
		if a.Processes != b.Processes {
			return a.Processes > b.Processes
		}
		return a.Tag < b.Tag
	})
	return out
}

// ---------------------------------------------------------------------------
// Figure 3: imported Python packages.

// PackageStat is one Figure 3 bar group.
type PackageStat struct {
	Package       string
	UniqueUsers   int
	Jobs          int
	Processes     int
	UniqueScripts int
}

// PythonPackages computes Figure 3 over python-category records.
func (d *Dataset) PythonPackages() []PackageStat {
	type acc struct {
		users, jobs, scripts map[string]bool
		procs                int
	}
	byPkg := make(map[string]*acc)
	for _, r := range d.Records {
		if r.Category != "python" {
			continue
		}
		for _, pkg := range r.Imports {
			a, ok := byPkg[pkg]
			if !ok {
				a = &acc{users: map[string]bool{}, jobs: map[string]bool{}, scripts: map[string]bool{}}
				byPkg[pkg] = a
			}
			a.users[d.UserName(r.UID)] = true
			a.jobs[r.JobID] = true
			a.procs++
			if r.Script != nil && r.Script.FileH != "" {
				a.scripts[r.Script.FileH] = true
			}
		}
	}
	out := make([]PackageStat, 0, len(byPkg))
	for pkg, a := range byPkg {
		out = append(out, PackageStat{Package: pkg, UniqueUsers: len(a.users), Jobs: len(a.jobs),
			Processes: a.procs, UniqueScripts: len(a.scripts)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.UniqueUsers != b.UniqueUsers {
			return a.UniqueUsers > b.UniqueUsers
		}
		if a.Jobs != b.Jobs {
			return a.Jobs > b.Jobs
		}
		if a.Processes != b.Processes {
			return a.Processes > b.Processes
		}
		return a.Package < b.Package
	})
	return out
}

// PythonPackageUsers maps each imported package to the sorted anonymised
// user names importing it — the detail the security-audit layer (pysec)
// needs beyond Figure 3's counts.
func (d *Dataset) PythonPackageUsers() map[string][]string {
	byPkg := make(map[string]map[string]bool)
	for _, r := range d.Records {
		if r.Category != "python" {
			continue
		}
		for _, pkg := range r.Imports {
			if byPkg[pkg] == nil {
				byPkg[pkg] = make(map[string]bool)
			}
			byPkg[pkg][d.UserName(r.UID)] = true
		}
	}
	out := make(map[string][]string, len(byPkg))
	for pkg, users := range byPkg {
		for u := range users {
			out[pkg] = append(out[pkg], u)
		}
		sort.Strings(out[pkg])
	}
	return out
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: label × compiler and label × library matrices.

// Matrix is a binary usage matrix with named rows and columns.
type Matrix struct {
	Rows []string // software labels
	Cols []string
	Bits map[string]map[string]bool // row → col → used
}

// Used reports the cell value.
func (m *Matrix) Used(row, col string) bool { return m.Bits[row][col] }

// CompilerMatrix computes Figure 4: which compiler identifications appear in
// each labelled application's executables. Rows are ordered by Table 5
// ranking; columns by total usage desc.
func (d *Dataset) CompilerMatrix() *Matrix {
	return d.matrix(func(r *postprocess.ProcessRecord) []string {
		var out []string
		for _, c := range r.Compilers {
			out = append(out, toolchain.ParseCommentLabel(c))
		}
		return out
	})
}

// LibraryMatrix computes Figure 5: which derived library tags appear in each
// labelled application's loaded objects.
func (d *Dataset) LibraryMatrix() *Matrix {
	return d.matrix(func(r *postprocess.ProcessRecord) []string {
		return DeriveLibraryTags(r.Objects)
	})
}

func (d *Dataset) matrix(colsOf func(*postprocess.ProcessRecord) []string) *Matrix {
	m := &Matrix{Bits: make(map[string]map[string]bool)}
	colTotals := make(map[string]int)
	for _, r := range d.Records {
		if r.Category != "user" {
			continue
		}
		label := DeriveLabel(r.Exe)
		if m.Bits[label] == nil {
			m.Bits[label] = make(map[string]bool)
		}
		for _, col := range colsOf(r) {
			if col == "" {
				continue
			}
			if !m.Bits[label][col] {
				m.Bits[label][col] = true
				colTotals[col]++
			}
		}
	}
	for _, ls := range d.DeriveLabels() {
		if ls.Label != UnknownLabel {
			m.Rows = append(m.Rows, ls.Label)
		}
	}
	for col := range colTotals {
		m.Cols = append(m.Cols, col)
	}
	sort.Slice(m.Cols, func(i, j int) bool {
		if colTotals[m.Cols[i]] != colTotals[m.Cols[j]] {
			return colTotals[m.Cols[i]] > colTotals[m.Cols[j]]
		}
		return m.Cols[i] < m.Cols[j]
	})
	return m
}
