// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4), plus the ablation benches called out in DESIGN.md §7.
// Each table/figure bench renders its output once (into the benchmark log),
// so `go test -bench=. -benchmem` regenerates the full evaluation alongside
// the timing numbers.
package siren_test

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"testing"

	"siren/internal/analysis"
	"siren/internal/campaign"
	"siren/internal/collector"
	"siren/internal/core"
	"siren/internal/postprocess"
	"siren/internal/report"
	"siren/internal/ssdeep"
	"siren/internal/wire"
	"siren/internal/xalt"
)

// benchFixture is the shared campaign dataset (scale 0.02, ≈18k processes).
type benchFixture struct {
	data  *analysis.Dataset
	stats postprocess.Stats
}

var (
	fixOnce sync.Once
	fix     *benchFixture
	fixErr  error
)

func fixture(b *testing.B) *benchFixture {
	b.Helper()
	fixOnce.Do(func() {
		p, err := core.NewPipeline(core.Options{})
		if err != nil {
			fixErr = err
			return
		}
		defer p.Close()
		if _, err := p.RunCampaign(campaign.Config{Scale: 0.02, Seed: 1}); err != nil {
			fixErr = err
			return
		}
		data, stats, err := p.Analyze()
		if err != nil {
			fixErr = err
			return
		}
		fix = &benchFixture{data: data, stats: stats}
	})
	if fixErr != nil {
		b.Fatalf("campaign fixture: %v", fixErr)
	}
	return fix
}

var printedMu sync.Mutex
var printed = map[string]bool{}

// printOnce renders a table into the benchmark output exactly once.
func printOnce(b *testing.B, key string, f func(w io.Writer)) {
	printedMu.Lock()
	defer printedMu.Unlock()
	if printed[key] {
		return
	}
	printed[key] = true
	fmt.Fprintf(os.Stdout, "\n--- %s ---\n", key)
	f(os.Stdout)
}

// --------------------------------------------------------------------------
// Tables

func BenchmarkTable1ScopePolicy(b *testing.B) {
	printOnce(b, "Table 1: collection scope by category", func(w io.Writer) {
		rows := [][]string{}
		for _, cat := range []collector.Category{collector.CategorySystem, collector.CategoryUser, collector.CategoryPython} {
			s := collector.ScopeFor(cat)
			rows = append(rows, []string{cat.String(), tick(s.FileMetadata), tick(s.Libraries),
				tick(s.Modules), tick(s.Compilers), tick(s.MemoryMap), tick(s.FileH), tick(s.StringsH), tick(s.SymbolsH)})
		}
		ss := collector.ScriptScope()
		rows = append(rows, []string{"python-script", tick(ss.FileMetadata), tick(ss.Libraries),
			tick(ss.Modules), tick(ss.Compilers), tick(ss.MemoryMap), tick(ss.FileH), tick(ss.StringsH), tick(ss.SymbolsH)})
		report.Table(w, "", []string{"category", "meta", "libs", "mods", "comp", "maps", "FILE_H", "STR_H", "SYM_H"}, rows)
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, path := range []string{"/usr/bin/bash", "/users/u/app", "/usr/bin/python3.10"} {
			_ = collector.ScopeFor(collector.Categorize(path))
		}
	}
}

func BenchmarkTable2UserStats(b *testing.B) {
	f := fixture(b)
	printOnce(b, "Table 2: users, jobs, processes", func(w io.Writer) {
		var rows [][]string
		for _, s := range f.data.UserStats() {
			rows = append(rows, []string{s.User, report.Itoa(s.Jobs), report.Itoa(s.SystemProcs),
				report.Itoa(s.UserProcs), report.Itoa(s.PythonProcs)})
		}
		report.Table(w, "", []string{"user", "jobs", "system", "user", "python"}, rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(f.data.UserStats()) != 12 {
			b.Fatal("user count drifted")
		}
	}
}

func BenchmarkTable3TopSystemExecutables(b *testing.B) {
	f := fixture(b)
	printOnce(b, "Table 3: top system executables", func(w io.Writer) {
		var rows [][]string
		for _, e := range f.data.TopSystemExecutables(10) {
			rows = append(rows, []string{e.Path, report.Itoa(e.UniqueUsers), report.Itoa(e.Jobs),
				report.Itoa(e.Processes), report.Itoa(e.UniqueObjectsH)})
		}
		report.Table(w, "", []string{"executable", "users", "jobs", "procs", "uniq OBJECTS_H"}, rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.data.TopSystemExecutables(10)
	}
}

func BenchmarkTable4DeviatingLibraries(b *testing.B) {
	f := fixture(b)
	printOnce(b, "Table 4: deviating shared objects of bash", func(w io.Writer) {
		var rows [][]string
		for _, s := range f.data.DeviatingLibraries("/usr/bin/bash") {
			rows = append(rows, []string{report.Itoa(s.Processes), s.LibraryVariant("libtinfo"), s.LibraryVariant("libm")})
		}
		report.Table(w, "", []string{"procs", "libtinfo", "libm"}, rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(f.data.DeviatingLibraries("/usr/bin/bash")) != 3 {
			b.Fatal("variant count drifted")
		}
	}
}

func BenchmarkTable5DerivedLabels(b *testing.B) {
	f := fixture(b)
	printOnce(b, "Table 5: derived labels", func(w io.Writer) {
		var rows [][]string
		for _, l := range f.data.DeriveLabels() {
			rows = append(rows, []string{l.Label, report.Itoa(l.UniqueUsers), report.Itoa(l.Jobs),
				report.Itoa(l.Processes), report.Itoa(l.UniqueFileH)})
		}
		report.Table(w, "", []string{"label", "users", "jobs", "procs", "uniq FILE_H"}, rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.data.DeriveLabels()
	}
}

func BenchmarkTable6CompilerInfo(b *testing.B) {
	f := fixture(b)
	printOnce(b, "Table 6: compiler combinations", func(w io.Writer) {
		var rows [][]string
		for _, c := range f.data.CompilerTable() {
			rows = append(rows, []string{c.Compilers, report.Itoa(c.UniqueUsers), report.Itoa(c.Jobs),
				report.Itoa(c.Processes), report.Itoa(c.UniqueFileH)})
		}
		report.Table(w, "", []string{"compilers", "users", "jobs", "procs", "uniq FILE_H"}, rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.data.CompilerTable()
	}
}

func BenchmarkTable7SimilaritySearch(b *testing.B) {
	f := fixture(b)
	unknown, ok := f.data.FindUnknown()
	if !ok {
		b.Fatal("no UNKNOWN baseline")
	}
	printOnce(b, "Table 7: similarity search for the unknown a.out", func(w io.Writer) {
		var rows [][]string
		for _, r := range f.data.SimilaritySearch(unknown, 10, ssdeep.BackendWeighted) {
			rows = append(rows, []string{r.Label, report.F1(r.Avg), report.Itoa(r.ModulesS),
				report.Itoa(r.CompilersS), report.Itoa(r.ObjectsS), report.Itoa(r.FileS),
				report.Itoa(r.StringsS), report.Itoa(r.SymbolsS)})
		}
		report.Table(w, "", []string{"label", "avg", "MO_H", "CO_H", "OB_H", "FI_H", "ST_H", "SY_H"}, rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := f.data.SimilaritySearch(unknown, 10, ssdeep.BackendWeighted)
		if len(rows) == 0 || rows[0].Label != "icon" {
			b.Fatal("identification failed")
		}
	}
}

func BenchmarkTable8PythonInterpreters(b *testing.B) {
	f := fixture(b)
	printOnce(b, "Table 8: Python interpreters", func(w io.Writer) {
		var rows [][]string
		for _, s := range f.data.PythonInterpreters() {
			rows = append(rows, []string{s.Interpreter, report.Itoa(s.UniqueUsers), report.Itoa(s.Jobs),
				report.Itoa(s.Processes), report.Itoa(s.UniqueScriptH)})
		}
		report.Table(w, "", []string{"interpreter", "users", "jobs", "procs", "uniq SCRIPT_H"}, rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.data.PythonInterpreters()
	}
}

// --------------------------------------------------------------------------
// Figures

// BenchmarkFig1PipelineEndToEnd exercises every arrow of the architecture
// diagram per iteration: preload hook → collection → chunked transport →
// receiver → database → consolidation.
func BenchmarkFig1PipelineEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := core.NewPipeline(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.RunCampaign(campaign.Config{Scale: 0.0005, Seed: int64(i), Workers: 2}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := p.Analyze(); err != nil {
			b.Fatal(err)
		}
		p.Close()
	}
}

func BenchmarkFig2DerivedLibraries(b *testing.B) {
	f := fixture(b)
	printOnce(b, "Figure 2: derived+filtered shared objects", func(w io.Writer) {
		var rows [][]string
		for _, s := range f.data.DerivedLibraries() {
			rows = append(rows, []string{s.Tag, report.Itoa(s.UniqueUsers), report.Itoa(s.Jobs),
				report.Itoa(s.Processes), report.Itoa(s.UniqueExecutables)})
		}
		report.Table(w, "", []string{"tag", "users", "jobs", "procs", "uniq exes"}, rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.data.DerivedLibraries()
	}
}

func BenchmarkFig3PythonPackages(b *testing.B) {
	f := fixture(b)
	printOnce(b, "Figure 3: imported Python packages", func(w io.Writer) {
		var rows [][]string
		for _, p := range f.data.PythonPackages() {
			rows = append(rows, []string{p.Package, report.Itoa(p.UniqueUsers), report.Itoa(p.Jobs),
				report.Itoa(p.Processes), report.Itoa(p.UniqueScripts)})
		}
		report.Table(w, "", []string{"package", "users", "jobs", "procs", "uniq scripts"}, rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.data.PythonPackages()
	}
}

func BenchmarkFig4CompilerMatrix(b *testing.B) {
	f := fixture(b)
	printOnce(b, "Figure 4: compiler identification by label", func(w io.Writer) {
		report.Matrix(w, "", f.data.CompilerMatrix())
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.data.CompilerMatrix()
	}
}

func BenchmarkFig5LibraryMatrix(b *testing.B) {
	f := fixture(b)
	printOnce(b, "Figure 5: library usage by label", func(w io.Writer) {
		report.Matrix(w, "", f.data.LibraryMatrix())
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.data.LibraryMatrix()
	}
}

// --------------------------------------------------------------------------
// Reported numbers beyond tables

// BenchmarkUDPPipelineLoss reproduces the "~0.02% of jobs with missing
// fields" observation: a campaign over a lossy transport, reporting the
// affected-jobs fraction as a metric.
func BenchmarkUDPPipelineLoss(b *testing.B) {
	b.ReportAllocs()
	var lastFrac float64
	for i := 0; i < b.N; i++ {
		p, err := core.NewPipeline(core.Options{LossRate: 0.0001, LossSeed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.RunCampaign(campaign.Config{Scale: 0.005, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
		_, stats, err := p.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		p.Close()
		lastFrac = float64(stats.JobsWithMissing) / float64(max(1, stats.Jobs))
	}
	b.ReportMetric(lastFrac*100, "%jobs-missing-fields")
}

// --------------------------------------------------------------------------
// Ablations

func BenchmarkAblationScoringBackends(b *testing.B) {
	f := fixture(b)
	unknown, ok := f.data.FindUnknown()
	if !ok {
		b.Fatal("no baseline")
	}
	for _, backend := range []ssdeep.Backend{ssdeep.BackendWeighted, ssdeep.BackendDamerau, ssdeep.BackendLevenshtein} {
		b.Run(backend.String(), func(b *testing.B) {
			b.ReportAllocs()
			var top float64
			for i := 0; i < b.N; i++ {
				rows := f.data.SimilaritySearch(unknown, 10, backend)
				if len(rows) == 0 || rows[0].Label != "icon" {
					b.Fatal("identification failed under backend " + backend.String())
				}
				top = rows[0].Avg
			}
			b.ReportMetric(top, "top-avg-score")
		})
	}
}

// BenchmarkAblationHashInputs measures identification accuracy using a
// single hash column versus the paper's averaged multi-hash design:
// for every distinct icon binary, is its best non-self match another icon?
func BenchmarkAblationHashInputs(b *testing.B) {
	f := fixture(b)
	type probe struct {
		name string
		get  func(r *postprocess.ProcessRecord) string
	}
	probes := []probe{
		{"FILE_H", func(r *postprocess.ProcessRecord) string { return r.FileH }},
		{"STRINGS_H", func(r *postprocess.ProcessRecord) string { return r.StringsH }},
		{"SYMBOLS_H", func(r *postprocess.ProcessRecord) string { return r.SymbolsH }},
	}
	// Distinct user binaries by FILE_H.
	var bins []*postprocess.ProcessRecord
	seen := map[string]bool{}
	for _, r := range f.data.Records {
		if r.Category == "user" && r.FileH != "" && !seen[r.FileH] {
			seen[r.FileH] = true
			bins = append(bins, r)
		}
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i].Exe < bins[j].Exe })
	for _, p := range probes {
		b.Run(p.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				correct, total := 0, 0
				for _, q := range bins {
					if analysis.DeriveLabel(q.Exe) != "icon" {
						continue
					}
					total++
					bestScore, bestLabel := -1, ""
					for _, c := range bins {
						if c.FileH == q.FileH {
							continue
						}
						s, err := ssdeep.Compare(p.get(q), p.get(c))
						if err != nil {
							continue
						}
						if s > bestScore {
							bestScore, bestLabel = s, analysis.DeriveLabel(c.Exe)
						}
					}
					// UNKNOWN is icon in disguise: both count as correct.
					if bestLabel == "icon" || bestLabel == analysis.UnknownLabel {
						correct++
					}
				}
				if total > 0 {
					acc = float64(correct) / float64(total)
				}
			}
			b.ReportMetric(acc*100, "%top1-accuracy")
		})
	}
}

// BenchmarkAblationExactVsFuzzy contrasts XALT-style sha1 recognition with
// fuzzy matching across the icon rebuild family: exact hashing recognises
// only byte-identical binaries; fuzzy hashing recognises the family.
func BenchmarkAblationExactVsFuzzy(b *testing.B) {
	f := fixture(b)
	var iconRecs []*postprocess.ProcessRecord
	seen := map[string]bool{}
	for _, r := range f.data.Records {
		if r.Category == "user" && analysis.DeriveLabel(r.Exe) == "icon" && r.FileH != "" && !seen[r.FileH] {
			seen[r.FileH] = true
			iconRecs = append(iconRecs, r)
		}
	}
	if len(iconRecs) < 3 {
		b.Skip("not enough icon variants at this scale")
	}
	b.Run("sha1-exact", func(b *testing.B) {
		var recall float64
		for i := 0; i < b.N; i++ {
			// Index the first variant; try to recognise the others.
			idx := xalt.NewIndex([]xalt.Record{{Exe: iconRecs[0].Exe, SHA1: "h0"}})
			hits := 0
			for _, r := range iconRecs[1:] {
				// Distinct binaries → distinct sha1 (r.FileH distinct implies
				// content differs), so exact lookup misses by construction.
				if idx.Recognize("h-"+r.FileH) != nil {
					hits++
				}
			}
			recall = float64(hits) / float64(len(iconRecs)-1)
		}
		b.ReportMetric(recall*100, "%recall")
	})
	b.Run("ssdeep-fuzzy", func(b *testing.B) {
		var recall float64
		for i := 0; i < b.N; i++ {
			hits := 0
			for _, r := range iconRecs[1:] {
				s, err := ssdeep.Compare(iconRecs[0].FileH, r.FileH)
				if err == nil && s > 0 {
					hits++
				}
			}
			recall = float64(hits) / float64(len(iconRecs)-1)
		}
		b.ReportMetric(recall*100, "%recall")
	})
}

func BenchmarkAblationTransports(b *testing.B) {
	msg := wire.Message{Header: wire.Header{JobID: "1", StepID: "0", PID: 1, Hash: "ab",
		Host: "n", Time: 1, Layer: wire.LayerSelf, Type: wire.TypeObjects, Total: 1},
		Content: []byte("/lib64/libc.so.6\n/lib64/libm.so.6\n")}
	datagram := wire.Encode(msg)

	b.Run("channel", func(b *testing.B) {
		tr := wire.NewChanTransport(1 << 16)
		go func() {
			for range tr.C() {
			}
		}()
		b.SetBytes(int64(len(datagram)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := tr.Send(datagram); err != nil {
				b.Fatal(err)
			}
		}
		tr.Close()
	})
	b.Run("udp-loopback", func(b *testing.B) {
		pc, err := listenUDP()
		if err != nil {
			b.Fatal(err)
		}
		defer pc.close()
		tr, err := wire.DialUDP(pc.addr)
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		b.SetBytes(int64(len(datagram)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tr.Send(datagram) // fire and forget
		}
	})
}

func BenchmarkAblationChunkSizes(b *testing.B) {
	h := wire.Header{JobID: "1", StepID: "0", PID: 1, Hash: "ab", Host: "n",
		Time: 1, Layer: wire.LayerSelf, Type: wire.TypeMaps}
	content := make([]byte, 64<<10)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	for _, size := range []int{512, 1400, 4096, 16384} {
		b.Run(fmt.Sprintf("max=%d", size), func(b *testing.B) {
			b.SetBytes(int64(len(content)))
			b.ReportAllocs()
			var chunks int
			var buf, joined []byte
			var rows []wire.Scanned
			for i := 0; i < b.N; i++ {
				msgs := wire.Chunk(h, content, size)
				chunks = len(msgs)
				buf, rows = buf[:0], rows[:0]
				for j := range msgs {
					lo := len(buf)
					var f wire.Fields
					buf, f = wire.AppendEncodeFields(buf, &msgs[j])
					rows = append(rows, wire.Scanned{Datagram: buf[lo:], Fields: f})
				}
				lo := 0
				for j := range rows { // buf may have moved while it grew
					rows[j].Datagram = buf[lo : lo+len(rows[j].Datagram)]
					lo += len(rows[j].Datagram)
				}
				recs := wire.Reassemble(rows)
				if len(recs) != 1 || !recs[0].Complete {
					b.Fatal("reassembly failed")
				}
				joined = recs[0].AppendContent(joined[:0])
			}
			b.ReportMetric(float64(chunks), "chunks")
		})
	}
}

// --------------------------------------------------------------------------
// helpers

func tick(v bool) string {
	if v {
		return "yes"
	}
	return "-"
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
