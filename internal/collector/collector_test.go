package collector

import (
	"fmt"
	"strings"
	"testing"

	"siren/internal/ldso"
	"siren/internal/procfs"
	"siren/internal/pyenv"
	"siren/internal/slurm"
	"siren/internal/toolchain"
	"siren/internal/wire"
)

// world builds a minimal system: libc, siren.so, one system tool, one user
// app, one Python interpreter with a script.
type world struct {
	rt        *slurm.Runtime
	col       *Collector
	transport *wire.ChanTransport
}

func newWorld(t *testing.T) *world {
	t.Helper()
	fs := procfs.NewFS()
	cache := ldso.NewCache()
	for _, lib := range []ldso.Library{
		{Soname: "libc.so.6", Path: "/lib64/libc.so.6"},
		{Soname: "libm.so.6", Path: "/lib64/libm.so.6"},
		{Soname: "siren.so", Path: "/opt/siren/lib/siren.so"},
	} {
		cache.Register(lib)
		fs.Install(lib.Path, []byte("so"), procfs.FileMeta{})
	}
	build := func(path, name string, libs []string) {
		art, err := toolchain.Compile(
			toolchain.Source{Name: name, Version: "1.0",
				Functions: []string{name + "_main", name + "_run"},
				Strings:   []string{name + " says hello"}},
			toolchain.BuildOptions{Compilers: []toolchain.Compiler{toolchain.GCCSUSE, toolchain.ClangCray}, Libraries: libs})
		if err != nil {
			t.Fatal(err)
		}
		fs.Install(path, art.Binary, procfs.FileMeta{Mtime: 1700000000})
	}
	build("/usr/bin/cat", "cat", []string{"libc.so.6"})
	build("/users/user_3/sim/bin/solver", "solver", []string{"libm.so.6", "libc.so.6"})
	build("/usr/bin/python3.10", "python3.10", []string{"libc.so.6"})

	script := pyenv.GenerateScript("/scratch/u3/analysis.py", 7, []string{"numpy", "heapq"})
	fs.Install(script.Path, script.Content, procfs.FileMeta{Mtime: 1700000001})

	tr := wire.NewChanTransport(100000)
	col := New(tr)
	rt := slurm.NewRuntime(fs, procfs.NewTable(0), cache, slurm.NewClock(1733900000))
	rt.Hook = col
	return &world{rt: rt, col: col, transport: tr}
}

func env(extra map[string]string) map[string]string {
	base := map[string]string{
		"LD_PRELOAD":    "/opt/siren/lib/siren.so",
		"SLURM_JOB_ID":  "555",
		"SLURM_STEP_ID": "0",
		"SLURM_PROCID":  "0",
		"HOSTNAME":      "nid001001",
		"LOADEDMODULES": "craype/2.7.30:cray-netcdf/4.9.0",
	}
	for k, v := range extra {
		base[k] = v
	}
	return base
}

func (w *world) drain(t *testing.T) []wire.Message {
	t.Helper()
	w.transport.Close()
	var out []wire.Message
	for d := range w.transport.C() {
		m, err := wire.Parse(d)
		if err != nil {
			t.Fatalf("undecodable datagram: %v", err)
		}
		out = append(out, m)
	}
	return out
}

func typeSet(msgs []wire.Message) map[string]int {
	out := make(map[string]int)
	for _, m := range msgs {
		key := m.Layer + ":" + m.Type
		out[key]++
	}
	return out
}

func TestCategorize(t *testing.T) {
	cases := []struct {
		path string
		want Category
	}{
		{"/usr/bin/bash", CategorySystem},
		{"/opt/cray/pe/bin/cc", CategorySystem},
		{"/usr/bin/python3.10", CategoryPython},
		{"/users/u/app", CategoryUser},
		{"/scratch/project/a.out", CategoryUser},
		{"/appl/amber22/bin/pmemd", CategoryUser},
		{"/users/u/miniconda3/bin/python3.12", CategoryUser}, // user-dir interpreter
		{"/proc/self/exe", CategorySystem},
	}
	for _, c := range cases {
		if got := Categorize(c.path); got != c.want {
			t.Errorf("Categorize(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestScopeMatrixMatchesTable1 pins the Table 1 policy exactly.
func TestScopeMatrixMatchesTable1(t *testing.T) {
	sys := ScopeFor(CategorySystem)
	if sys != (Scope{FileMetadata: true, Libraries: true}) {
		t.Errorf("system scope = %+v", sys)
	}
	usr := ScopeFor(CategoryUser)
	if usr != (Scope{FileMetadata: true, Libraries: true, Modules: true, Compilers: true,
		MemoryMap: true, FileH: true, StringsH: true, SymbolsH: true}) {
		t.Errorf("user scope = %+v", usr)
	}
	py := ScopeFor(CategoryPython)
	if py != (Scope{FileMetadata: true, Libraries: true, MemoryMap: true}) {
		t.Errorf("python scope = %+v", py)
	}
	if ScriptScope() != (Scope{FileMetadata: true, FileH: true}) {
		t.Errorf("script scope = %+v", ScriptScope())
	}
}

func TestSystemExecutableScope(t *testing.T) {
	w := newWorld(t)
	if _, err := w.rt.Run("/usr/bin/cat", slurm.ExecOptions{PPID: 1, Env: env(nil)}, nil); err != nil {
		t.Fatal(err)
	}
	types := typeSet(w.drain(t))
	want := []string{"SELF:METADATA", "SELF:OBJECTS", "SELF:OBJECTS_H"}
	for _, ty := range want {
		if types[ty] == 0 {
			t.Errorf("missing %s (have %v)", ty, types)
		}
	}
	for _, forbidden := range []string{"SELF:FILE_H", "SELF:COMPILERS", "SELF:MODULES", "SELF:MAPS"} {
		if types[forbidden] != 0 {
			t.Errorf("system executable must not send %s", forbidden)
		}
	}
}

func TestUserExecutableScope(t *testing.T) {
	w := newWorld(t)
	if _, err := w.rt.Run("/users/user_3/sim/bin/solver", slurm.ExecOptions{PPID: 1, UID: 1003, Env: env(nil)}, nil); err != nil {
		t.Fatal(err)
	}
	msgs := w.drain(t)
	types := typeSet(msgs)
	for _, ty := range []string{
		"SELF:METADATA", "SELF:OBJECTS", "SELF:OBJECTS_H",
		"SELF:MODULES", "SELF:MODULES_H", "SELF:COMPILERS", "SELF:COMPILERS_H",
		"SELF:FILE_H", "SELF:STRINGS_H", "SELF:SYMBOLS_H", "SELF:MAPS", "SELF:MAPS_H",
	} {
		if types[ty] == 0 {
			t.Errorf("missing %s (have %v)", ty, types)
		}
	}
	// Inspect a few contents.
	for _, m := range msgs {
		switch m.Type {
		case wire.TypeModules:
			if !strings.Contains(string(m.Content), "cray-netcdf/4.9.0") {
				t.Errorf("MODULES content = %q", m.Content)
			}
		case wire.TypeCompilers:
			if !strings.Contains(string(m.Content), "GCC: (SUSE Linux)") {
				t.Errorf("COMPILERS content = %q", m.Content)
			}
		case wire.TypeMetadata:
			if !strings.Contains(string(m.Content), "EXE=/users/user_3/sim/bin/solver") ||
				!strings.Contains(string(m.Content), "CATEGORY=user") {
				t.Errorf("METADATA content = %q", m.Content)
			}
		}
		if m.JobID != "555" || m.Host != "nid001001" {
			t.Errorf("header = %+v", m.Header)
		}
	}
}

func TestPythonInterpreterAndScript(t *testing.T) {
	w := newWorld(t)
	it := pyenv.Interpreter{Version: "3.10", Path: "/usr/bin/python3.10", LibDir: "/usr/lib64/python3.10"}
	extra := pyenv.MapRegions(it, []string{"numpy", "heapq"}, 0x7f2000000000)
	_, err := w.rt.Run("/usr/bin/python3.10", slurm.ExecOptions{
		PPID: 1, Env: env(nil), ExtraMaps: extra,
	}, func(p *procfs.Proc) error {
		p.Cmdline = []string{"/usr/bin/python3.10", "/scratch/u3/analysis.py"}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := w.drain(t)
	types := typeSet(msgs)
	for _, ty := range []string{
		"SELF:METADATA", "SELF:OBJECTS", "SELF:MAPS", "SELF:MAPS_H",
		"SCRIPT:METADATA", "SCRIPT:FILE_H",
	} {
		if types[ty] == 0 {
			t.Errorf("missing %s (have %v)", ty, types)
		}
	}
	// Interpreters are not hashed themselves (Table 1).
	if types["SELF:FILE_H"] != 0 || types["SELF:COMPILERS"] != 0 {
		t.Errorf("interpreter over-collected: %v", types)
	}
	// The maps content must expose the imported packages.
	for _, m := range msgs {
		if m.Type == wire.TypeMaps && m.Layer == wire.LayerSelf {
			joined := ""
			for _, mm := range msgs {
				if mm.Type == wire.TypeMaps {
					joined += string(mm.Content)
				}
			}
			regions, err := procfs.ParseMaps(joined)
			if err != nil {
				t.Fatalf("maps unparseable: %v", err)
			}
			imports := pyenv.ExtractImports(regions)
			if len(imports) != 2 {
				t.Errorf("imports = %q", imports)
			}
			break
		}
	}
}

func TestProcIDGate(t *testing.T) {
	w := newWorld(t)
	if _, err := w.rt.Run("/users/user_3/sim/bin/solver",
		slurm.ExecOptions{PPID: 1, Env: env(map[string]string{"SLURM_PROCID": "3"})}, nil); err != nil {
		t.Fatal(err)
	}
	if msgs := w.drain(t); len(msgs) != 0 {
		t.Errorf("rank 3 sent %d messages, want 0", len(msgs))
	}
	if w.col.Stats().ProcessesSkipped.Load() != 1 {
		t.Error("skip not counted")
	}
}

func TestNonSlurmProcessStillCollected(t *testing.T) {
	w := newWorld(t)
	e := env(nil)
	delete(e, "SLURM_PROCID")
	delete(e, "SLURM_JOB_ID")
	if _, err := w.rt.Run("/usr/bin/cat", slurm.ExecOptions{PPID: 1, Env: e}, nil); err != nil {
		t.Fatal(err)
	}
	msgs := w.drain(t)
	if len(msgs) == 0 {
		t.Fatal("login-node style process (no Slurm env) must still be collected")
	}
	if msgs[0].JobID != "" {
		t.Errorf("JobID = %q, want empty", msgs[0].JobID)
	}
}

func TestChunkedRecordsReassemble(t *testing.T) {
	w := newWorld(t)
	w.col.SetMaxDatagram(300) // force chunking of everything
	if _, err := w.rt.Run("/users/user_3/sim/bin/solver", slurm.ExecOptions{PPID: 1, Env: env(nil)}, nil); err != nil {
		t.Fatal(err)
	}
	var rows []wire.Scanned
	for _, m := range w.drain(t) {
		d, f := wire.AppendEncodeFields(nil, &m)
		rows = append(rows, wire.Scanned{Datagram: d, Fields: f})
	}
	for _, r := range wire.Reassemble(rows) {
		if !r.Complete {
			t.Errorf("record %s incomplete without loss", r.Row.Value(r.Row.Datagram, wire.FieldType))
		}
	}
}

func TestGracefulFailureOnMissingScript(t *testing.T) {
	w := newWorld(t)
	_, err := w.rt.Run("/usr/bin/python3.10", slurm.ExecOptions{PPID: 1, Env: env(nil)},
		func(p *procfs.Proc) error {
			p.Cmdline = []string{"/usr/bin/python3.10", "/gone/script.py"}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if w.col.Stats().Failures.Load() == 0 {
		t.Error("missing script should count as failure")
	}
	// The process itself completed; SELF records still flowed.
	if len(w.drain(t)) == 0 {
		t.Error("collection should continue despite script failure")
	}
}

func TestScanBinaryReport(t *testing.T) {
	art, err := toolchain.Compile(
		toolchain.Source{Name: "tool", Version: "2.0", Functions: []string{"tool_run"}},
		toolchain.BuildOptions{Compilers: []toolchain.Compiler{toolchain.ClangAMD}, Libraries: []string{"libm.so.6"}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ScanBinary(art.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Compilers) != 1 || !strings.Contains(rep.Compilers[0], "clang version") {
		t.Errorf("compilers = %q", rep.Compilers)
	}
	if len(rep.Needed) != 1 || rep.Needed[0] != "libm.so.6" {
		t.Errorf("needed = %q", rep.Needed)
	}
	if rep.FileH == "" || rep.StringsH == "" || rep.SymbolsH == "" {
		t.Errorf("missing hashes: %+v", rep)
	}
	if _, err := ScanBinary([]byte("not elf")); err == nil {
		t.Error("ScanBinary must reject non-ELF input")
	}
}

func BenchmarkCollectUserProcess(b *testing.B) {
	art, err := toolchain.Compile(
		toolchain.Source{Name: "bench", Version: "1", Functions: []string{"f1", "f2"}},
		toolchain.BuildOptions{Compilers: []toolchain.Compiler{toolchain.GCCSUSE}})
	if err != nil {
		b.Fatal(err)
	}
	benchCollect(b, [][]byte{art.Binary})
}

// BenchmarkCollectCorpus collects one user process of each of four
// synthetic executables of the campaign's sizes (16 to 64 KiB of code,
// generated by toolchain.Compile: other compilers, libraries, symbol counts)
// per iteration — the collector's per-process cost over a corpus rather
// than one binary.
func BenchmarkCollectCorpus(b *testing.B) {
	var imgs [][]byte
	for i, o := range []struct {
		kb   int
		comp toolchain.Compiler
		libs []string
	}{
		{16, toolchain.GCCSUSE, nil},
		{24, toolchain.ClangCray, []string{"libm.so.6"}},
		{48, toolchain.GCCHPE, []string{"libm.so.6", "libc.so.6"}},
		{64, toolchain.ClangAMD, nil},
	} {
		funcs := make([]string, 4+8*i)
		for f := range funcs {
			funcs[f] = fmt.Sprintf("app%d_f%d", i, f)
		}
		art, err := toolchain.Compile(
			toolchain.Source{Name: fmt.Sprintf("app%d", i), Version: "1.0", Functions: funcs, CodeKB: o.kb},
			toolchain.BuildOptions{Compilers: []toolchain.Compiler{o.comp}, Libraries: o.libs, OptLevel: i % 4})
		if err != nil {
			b.Fatal(err)
		}
		imgs = append(imgs, art.Binary)
	}
	benchCollect(b, imgs)
}

// benchCollect installs each image as a user executable and runs one
// process of each per iteration, collected end to end into a drained
// transport.
func benchCollect(b *testing.B, imgs [][]byte) {
	fs := procfs.NewFS()
	cache := ldso.NewCache()
	for _, lib := range []string{"libc.so.6", "libm.so.6"} {
		cache.Register(ldso.Library{Soname: lib, Path: "/lib64/" + lib})
		fs.Install("/lib64/"+lib, []byte("so"), procfs.FileMeta{})
	}
	cache.Register(ldso.Library{Soname: "siren.so", Path: "/opt/siren/lib/siren.so"})
	fs.Install("/opt/siren/lib/siren.so", []byte("so"), procfs.FileMeta{})
	paths := make([]string, len(imgs))
	for i, img := range imgs {
		paths[i] = fmt.Sprintf("/users/u/bench%d", i)
		fs.Install(paths[i], img, procfs.FileMeta{})
	}
	tr := wire.NewChanTransport(1 << 20)
	go func() {
		for range tr.C() {
		}
	}()
	col := New(tr)
	rt := slurm.NewRuntime(fs, procfs.NewTable(0), cache, slurm.NewClock(1733900000))
	rt.Hook = col
	e := env(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, path := range paths {
			if _, err := rt.Run(path, slurm.ExecOptions{PPID: 1, Env: e}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}
