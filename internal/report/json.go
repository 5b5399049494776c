// Machine-readable report shape — the one source of truth shared by
// cmd/siren-analyze -json and the serving tier's /api/v1/report endpoint.
// Both marshal exactly these structs, so an offline batch report and an
// online query against the same records are field-for-field comparable.
package report

import (
	"sync"

	"siren/internal/analysis"
	"siren/internal/postprocess"
	"siren/internal/ssdeep"
)

// JSONDatasetStats mirrors the consolidation Stats header of the report.
type JSONDatasetStats struct {
	Messages             int `json:"messages"`
	Records              int `json:"records"`
	Processes            int `json:"processes"`
	ProcessesWithMissing int `json:"processes_with_missing"`
	Jobs                 int `json:"jobs"`
	JobsWithMissing      int `json:"jobs_with_missing"`
}

// JSONUserStat is one Table 2 row.
type JSONUserStat struct {
	User        string `json:"user"`
	Jobs        int    `json:"jobs"`
	SystemProcs int    `json:"system_procs"`
	UserProcs   int    `json:"user_procs"`
	PythonProcs int    `json:"python_procs"`
	TotalProcs  int    `json:"total_procs"`
}

// JSONExeStat is one Table 3 row.
type JSONExeStat struct {
	Path           string `json:"path"`
	UniqueUsers    int    `json:"unique_users"`
	Jobs           int    `json:"jobs"`
	Processes      int    `json:"processes"`
	UniqueObjectsH int    `json:"unique_objects_h"`
}

// JSONLabelStat is one Table 5 row.
type JSONLabelStat struct {
	Label       string `json:"label"`
	UniqueUsers int    `json:"unique_users"`
	Jobs        int    `json:"jobs"`
	Processes   int    `json:"processes"`
	UniqueFileH int    `json:"unique_file_h"`
}

// JSONCompilerStat is one Table 6 row.
type JSONCompilerStat struct {
	Compilers   string `json:"compilers"`
	UniqueUsers int    `json:"unique_users"`
	Jobs        int    `json:"jobs"`
	Processes   int    `json:"processes"`
	UniqueFileH int    `json:"unique_file_h"`
}

// JSONSimilarityRow is one similarity ranking row — Table 7 offline, the
// identify response online. Scores are the six per-characteristic fuzzy-hash
// similarities (0–100) and their average.
type JSONSimilarityRow struct {
	Label      string  `json:"label"`
	Exe        string  `json:"exe"`
	Avg        float64 `json:"avg"`
	ModulesS   int     `json:"modules_s"`
	CompilersS int     `json:"compilers_s"`
	ObjectsS   int     `json:"objects_s"`
	FileS      int     `json:"file_s"`
	StringsS   int     `json:"strings_s"`
	SymbolsS   int     `json:"symbols_s"`
}

// JSONSimilaritySearch is the Table 7 block: the unknown baseline and its
// ranking against every known fingerprint.
type JSONSimilaritySearch struct {
	BaselineExe string              `json:"baseline_exe"`
	Rows        []JSONSimilarityRow `json:"rows"`
}

// JSONInterpreterStat is one Table 8 row.
type JSONInterpreterStat struct {
	Interpreter   string `json:"interpreter"`
	UniqueUsers   int    `json:"unique_users"`
	Jobs          int    `json:"jobs"`
	Processes     int    `json:"processes"`
	UniqueScriptH int    `json:"unique_script_h"`
}

// JSONLibraryTagStat is one Figure 2 bar group.
type JSONLibraryTagStat struct {
	Tag               string `json:"tag"`
	UniqueUsers       int    `json:"unique_users"`
	Jobs              int    `json:"jobs"`
	Processes         int    `json:"processes"`
	UniqueExecutables int    `json:"unique_executables"`
}

// JSONPackageStat is one Figure 3 bar group.
type JSONPackageStat struct {
	Package       string `json:"package"`
	UniqueUsers   int    `json:"unique_users"`
	Jobs          int    `json:"jobs"`
	Processes     int    `json:"processes"`
	UniqueScripts int    `json:"unique_scripts"`
}

// JSONReport is the full machine-readable evaluation: every table and bar
// figure WriteEvaluation renders as text (the binary usage matrices of
// Figures 4/5 are presentation-only and not included).
type JSONReport struct {
	Dataset            JSONDatasetStats      `json:"dataset"`
	Users              []JSONUserStat        `json:"users"`
	SystemExecutables  []JSONExeStat         `json:"system_executables"`
	SystemExecutableN  int                   `json:"system_executable_count"`
	Labels             []JSONLabelStat       `json:"labels"`
	Compilers          []JSONCompilerStat    `json:"compilers"`
	Similarity         *JSONSimilaritySearch `json:"similarity,omitempty"`
	PythonInterpreters []JSONInterpreterStat `json:"python_interpreters"`
	DerivedLibraries   []JSONLibraryTagStat  `json:"derived_libraries"`
	PythonPackages     []JSONPackageStat     `json:"python_packages"`
}

// JSONSimilarityRows converts analysis ranking rows to their wire shape.
func JSONSimilarityRows(rows []analysis.SimilarityRow) []JSONSimilarityRow {
	out := make([]JSONSimilarityRow, len(rows))
	for i, r := range rows {
		out[i] = JSONSimilarityRow{
			Label: r.Label, Exe: r.Exe, Avg: r.Avg,
			ModulesS: r.ModulesS, CompilersS: r.CompilersS, ObjectsS: r.ObjectsS,
			FileS: r.FileS, StringsS: r.StringsS, SymbolsS: r.SymbolsS,
		}
	}
	return out
}

// BuildJSON assembles the machine-readable report from a consolidated
// dataset — the same group-bys WriteEvaluation renders, in the same order.
// The similarity block mirrors the text report: present only when the
// dataset contains an UNKNOWN baseline, ranked top 10. The tables are
// independent reads of the dataset, so they are computed concurrently, each
// into its own fields of the report.
func BuildJSON(data *analysis.Dataset, stats postprocess.Stats) *JSONReport {
	rep := &JSONReport{
		Dataset: JSONDatasetStats{
			Messages:             stats.Messages,
			Records:              stats.Records,
			Processes:            stats.Processes,
			ProcessesWithMissing: stats.ProcessesWithMissing,
			Jobs:                 stats.Jobs,
			JobsWithMissing:      stats.JobsWithMissing,
		},
	}
	tables := jsonTables(data, rep)
	var wg sync.WaitGroup
	for _, table := range tables[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table()
		}()
	}
	tables[0]()
	wg.Wait()
	return rep
}

// jsonTables returns one function per report table, the costliest first;
// each writes only its own fields of rep.
func jsonTables(data *analysis.Dataset, rep *JSONReport) []func() {
	return []func(){
		func() {
			if unknown, ok := data.FindUnknown(); ok {
				rep.Similarity = &JSONSimilaritySearch{
					BaselineExe: unknown.Exe,
					Rows:        JSONSimilarityRows(data.SimilaritySearch(unknown, 10, ssdeep.BackendWeighted)),
				}
			}
		},
		func() { rep.SystemExecutableN = data.SystemExecutableCount() },
		func() {
			for _, s := range data.UserStats() {
				rep.Users = append(rep.Users, JSONUserStat{User: s.User, Jobs: s.Jobs,
					SystemProcs: s.SystemProcs, UserProcs: s.UserProcs, PythonProcs: s.PythonProcs,
					TotalProcs: s.TotalProcs})
			}
		},
		func() {
			for _, e := range data.TopSystemExecutables(10) {
				rep.SystemExecutables = append(rep.SystemExecutables, JSONExeStat{Path: e.Path,
					UniqueUsers: e.UniqueUsers, Jobs: e.Jobs, Processes: e.Processes,
					UniqueObjectsH: e.UniqueObjectsH})
			}
		},
		func() {
			for _, l := range data.DeriveLabels() {
				rep.Labels = append(rep.Labels, JSONLabelStat{Label: l.Label, UniqueUsers: l.UniqueUsers,
					Jobs: l.Jobs, Processes: l.Processes, UniqueFileH: l.UniqueFileH})
			}
		},
		func() {
			for _, c := range data.CompilerTable() {
				rep.Compilers = append(rep.Compilers, JSONCompilerStat{Compilers: c.Compilers,
					UniqueUsers: c.UniqueUsers, Jobs: c.Jobs, Processes: c.Processes,
					UniqueFileH: c.UniqueFileH})
			}
		},
		func() {
			for _, s := range data.PythonInterpreters() {
				rep.PythonInterpreters = append(rep.PythonInterpreters, JSONInterpreterStat{
					Interpreter: s.Interpreter, UniqueUsers: s.UniqueUsers, Jobs: s.Jobs,
					Processes: s.Processes, UniqueScriptH: s.UniqueScriptH})
			}
		},
		func() {
			for _, s := range data.DerivedLibraries() {
				rep.DerivedLibraries = append(rep.DerivedLibraries, JSONLibraryTagStat{Tag: s.Tag,
					UniqueUsers: s.UniqueUsers, Jobs: s.Jobs, Processes: s.Processes,
					UniqueExecutables: s.UniqueExecutables})
			}
		},
		func() {
			for _, s := range data.PythonPackages() {
				rep.PythonPackages = append(rep.PythonPackages, JSONPackageStat{Package: s.Package,
					UniqueUsers: s.UniqueUsers, Jobs: s.Jobs, Processes: s.Processes,
					UniqueScripts: s.UniqueScripts})
			}
		},
	}
}
