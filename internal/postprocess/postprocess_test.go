package postprocess

import (
	"reflect"
	"testing"

	"siren/internal/collector"
	"siren/internal/ldso"
	"siren/internal/procfs"
	"siren/internal/pyenv"
	"siren/internal/receiver"
	"siren/internal/sirendb"
	"siren/internal/slurm"
	"siren/internal/toolchain"
	"siren/internal/wire"
)

// pipeline runs a tiny world through collector → channel → receiver → DB
// and returns the DB.
type pipeline struct {
	rt  *slurm.Runtime
	db  *sirendb.DB
	tr  *wire.ChanTransport
	rcv *receiver.Receiver
}

func newPipeline(t *testing.T) *pipeline {
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
	build := func(path, name string, libs ...string) {
		art, err := toolchain.Compile(
			toolchain.Source{Name: name, Version: "1.0", Functions: []string{name + "_main"}},
			toolchain.BuildOptions{Compilers: []toolchain.Compiler{toolchain.GCCSUSE}, Libraries: libs})
		if err != nil {
			t.Fatal(err)
		}
		fs.Install(path, art.Binary, procfs.FileMeta{Mtime: 1700000000})
	}
	build("/usr/bin/bash", "bash", "libc.so.6")
	build("/usr/bin/mkdir", "mkdir", "libc.so.6")
	build("/users/u/solver", "solver", "libm.so.6", "libc.so.6")
	build("/usr/bin/python3.10", "python3.10", "libc.so.6")
	script := pyenv.GenerateScript("/scratch/u/run.py", 3, []string{"numpy"})
	fs.Install(script.Path, script.Content, procfs.FileMeta{Mtime: 1700000005})

	db, _ := sirendb.Open("")
	tr := wire.NewChanTransport(1 << 16)
	rcv := receiver.New(db, receiver.Options{})
	rcv.AttachChannel(tr.C())

	col := collector.New(tr)
	rt := slurm.NewRuntime(fs, procfs.NewTable(0), cache, slurm.NewClock(1733900000))
	rt.Hook = col
	return &pipeline{rt: rt, db: db, tr: tr, rcv: rcv}
}

func (p *pipeline) finish() {
	p.tr.Close()
	p.rcv.Close()
}

func slurmEnv(rank string) map[string]string {
	return map[string]string{
		"LD_PRELOAD":    "/opt/siren/lib/siren.so",
		"SLURM_JOB_ID":  "900",
		"SLURM_STEP_ID": "0",
		"SLURM_PROCID":  rank,
		"HOSTNAME":      "nid001002",
		"LOADEDMODULES": "craype/2.7.30",
	}
}

func TestConsolidateUserProcess(t *testing.T) {
	p := newPipeline(t)
	if _, err := p.rt.Run("/users/u/solver", slurm.ExecOptions{PPID: 1, UID: 1005, Env: slurmEnv("0")}, nil); err != nil {
		t.Fatal(err)
	}
	p.finish()

	recs, stats := Consolidate(p.db)
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	r := recs[0]
	if r.Exe != "/users/u/solver" || r.Category != "user" || r.JobID != "900" {
		t.Errorf("record = %+v", r)
	}
	if r.UID != 1005 {
		t.Errorf("UID = %d", r.UID)
	}
	// The preloaded siren.so leads the loaded-objects list — that is why the
	// paper's Figure 5 shows the "siren" tag for every application.
	if !reflect.DeepEqual(r.Objects, []string{"/opt/siren/lib/siren.so", "/lib64/libm.so.6", "/lib64/libc.so.6"}) {
		t.Errorf("Objects = %q", r.Objects)
	}
	if !reflect.DeepEqual(r.Modules, []string{"craype/2.7.30"}) {
		t.Errorf("Modules = %q", r.Modules)
	}
	if len(r.Compilers) != 1 {
		t.Errorf("Compilers = %q", r.Compilers)
	}
	if r.FileH == "" || r.StringsH == "" || r.SymbolsH == "" || r.ObjectsH == "" ||
		r.ModulesH == "" || r.CompilersH == "" || r.MapsH == "" {
		t.Errorf("missing hashes: %+v", r)
	}
	// MAPS is read for a Python interpreter's imports and not kept: a
	// compiled solver has none.
	if r.Imports != nil {
		t.Errorf("Imports = %q for a non-Python process", r.Imports)
	}
	if len(r.MissingFields) != 0 {
		t.Errorf("MissingFields = %q", r.MissingFields)
	}
	if stats.Processes != 1 || stats.Jobs != 1 || stats.JobsWithMissing != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if r.ExeName() != "solver" {
		t.Errorf("ExeName = %q", r.ExeName())
	}
}

func TestConsolidatePythonWithScript(t *testing.T) {
	p := newPipeline(t)
	it := pyenv.Interpreter{Version: "3.10", Path: "/usr/bin/python3.10", LibDir: "/usr/lib64/python3.10"}
	extra := pyenv.MapRegions(it, []string{"numpy"}, 0x7f3000000000)
	_, err := p.rt.Run("/usr/bin/python3.10", slurm.ExecOptions{PPID: 1, Env: slurmEnv("0"), ExtraMaps: extra},
		func(pr *procfs.Proc) error {
			pr.Cmdline = []string{"/usr/bin/python3.10", "/scratch/u/run.py"}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	p.finish()

	recs, _ := Consolidate(p.db)
	if len(recs) != 1 {
		t.Fatalf("python + script should merge into 1 record, got %d", len(recs))
	}
	r := recs[0]
	if r.Category != "python" {
		t.Errorf("category = %q", r.Category)
	}
	if r.Script == nil {
		t.Fatal("script record not merged")
	}
	if r.Script.Path != "/scratch/u/run.py" || r.Script.FileH == "" {
		t.Errorf("script = %+v", r.Script)
	}
	if !reflect.DeepEqual(r.Imports, []string{"numpy"}) {
		t.Errorf("imports = %q", r.Imports)
	}
	// Interpreters are not themselves hashed.
	if r.FileH != "" {
		t.Error("interpreter FILE_H should be empty per Table 1")
	}
}

func TestConsolidateExecPIDReuse(t *testing.T) {
	p := newPipeline(t)
	if _, err := p.rt.RunExec("/usr/bin/bash", "/usr/bin/mkdir", slurm.ExecOptions{PPID: 1, Env: slurmEnv("0")}); err != nil {
		t.Fatal(err)
	}
	p.finish()

	recs, _ := Consolidate(p.db)
	if len(recs) != 2 {
		t.Fatalf("exec'd process should yield 2 records, got %d", len(recs))
	}
	if recs[0].PID != recs[1].PID {
		t.Error("PIDs should match across exec")
	}
	if recs[0].Time != recs[1].Time {
		t.Error("times should collide (one-second granularity)")
	}
	exes := map[string]bool{recs[0].Exe: true, recs[1].Exe: true}
	if !exes["/usr/bin/bash"] || !exes["/usr/bin/mkdir"] {
		t.Errorf("exes = %v", exes)
	}
}

func TestMissingChunksMarked(t *testing.T) {
	// Hand-craft a chunked OBJECTS record with a lost middle chunk.
	h := wire.Header{JobID: "1", StepID: "0", PID: 5, Hash: "aa", Host: "n",
		Time: 10, Layer: wire.LayerSelf}
	content := []byte("/lib64/libA.so\n/lib64/libB.so\n/lib64/libC.so\n")
	h.Type = wire.TypeObjects
	chunks := wire.Chunk(h, content, 180)
	if len(chunks) < 3 {
		t.Skipf("need >=3 chunks, got %d", len(chunks))
	}
	msgs := append(chunks[:1], chunks[2:]...)
	meta := wire.Chunk(wire.Header{JobID: "1", StepID: "0", PID: 5, Hash: "aa", Host: "n",
		Time: 10, Layer: wire.LayerSelf, Type: wire.TypeMetadata},
		[]byte("EXE=/users/u/x\nCATEGORY=user\n"), 0)
	msgs = append(msgs, meta...)

	recs, stats := ConsolidateMessages(msgs)
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	found := false
	for _, mf := range recs[0].MissingFields {
		if mf == "SELF:OBJECTS" {
			found = true
		}
	}
	if !found {
		t.Errorf("MissingFields = %q", recs[0].MissingFields)
	}
	if stats.ProcessesWithMissing != 1 || stats.JobsWithMissing != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestDeterministicOrdering(t *testing.T) {
	p := newPipeline(t)
	for i := 0; i < 5; i++ {
		if _, err := p.rt.Run("/usr/bin/bash", slurm.ExecOptions{PPID: 1, Env: slurmEnv("0")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	p.finish()
	recs1, _ := Consolidate(p.db)
	recs2, _ := Consolidate(p.db)
	for i := range recs1 {
		if recs1[i].PID != recs2[i].PID || recs1[i].Time != recs2[i].Time {
			t.Fatal("ordering not deterministic")
		}
	}
	// Times must be non-decreasing.
	for i := 1; i < len(recs1); i++ {
		if recs1[i].Time < recs1[i-1].Time {
			t.Error("records not time-ordered")
		}
	}
}
