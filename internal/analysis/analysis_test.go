package analysis

import (
	"reflect"
	"testing"

	"siren/internal/postprocess"
	"siren/internal/ssdeep"
)

func rec(uid uint32, job, exe, category string, extras ...func(*postprocess.ProcessRecord)) *postprocess.ProcessRecord {
	r := &postprocess.ProcessRecord{UID: uid, JobID: job, Exe: exe, Category: category}
	for _, f := range extras {
		f(r)
	}
	return r
}

func withFileH(h string) func(*postprocess.ProcessRecord) {
	return func(r *postprocess.ProcessRecord) { r.FileH = h }
}

func withObjects(objs ...string) func(*postprocess.ProcessRecord) {
	return func(r *postprocess.ProcessRecord) { r.Objects = objs }
}

func withObjectsH(h string) func(*postprocess.ProcessRecord) {
	return func(r *postprocess.ProcessRecord) { r.ObjectsH = h }
}

func withCompilers(cs ...string) func(*postprocess.ProcessRecord) {
	return func(r *postprocess.ProcessRecord) { r.Compilers = cs }
}

func withScript(path, fileH string) func(*postprocess.ProcessRecord) {
	return func(r *postprocess.ProcessRecord) {
		r.Script = &postprocess.ScriptRecord{Path: path, FileH: fileH}
	}
}

func withImports(pkgs ...string) func(*postprocess.ProcessRecord) {
	return func(r *postprocess.ProcessRecord) { r.Imports = pkgs }
}

func TestDeriveLabel(t *testing.T) {
	cases := map[string]string{
		"/users/u/lammps/build/lmp":       "LAMMPS",
		"/appl/soft/chem/gromacs/bin/gmx": "GROMACS",
		"/users/u/miniconda3/bin/conda":   "miniconda",
		"/users/u/miniconda3/bin/mamba":   "miniconda",
		"/users/u/janko/bin/janko":        "janko",
		"/scratch/p/icon/build/bin/icon":  "icon",
		"/appl/amber22/bin/pmemd.hip":     "amber",
		"/users/u/tools/gzip":             "gzip",
		"/users/u/alexandria/alexandria":  "alexandria",
		"/users/u/RadRad/bin/RadRad":      "RadRad",
		"/scratch/p/run/a.out":            UnknownLabel,
		"/users/u/bin/mystery":            UnknownLabel,
	}
	for path, want := range cases {
		if got := DeriveLabel(path); got != want {
			t.Errorf("DeriveLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestDeriveLibraryTag(t *testing.T) {
	cases := map[string]string{
		"/opt/rocm/lib/librocfft.so.0":                                   "rocfft-rocm-fft",
		"/opt/cray/pe/gcc-libs/libquadmath.so.0":                         "quadmath-cray",
		"/opt/cray/libfabric/lib64/libfabric.so.1":                       "fabric-cray",
		"/lib64/libpthread.so.0":                                         "pthread",
		"/opt/siren/lib/siren.so":                                        "siren",
		"/appl/climatedt/lib/libclimatedt_yaml.so.1":                     "climatedt-yaml",
		"/opt/cray/pe/hdf5-parallel/lib/libhdf5_fortran_parallel.so.200": "hdf5-fortran-parallel-cray",
		"/appl/spack/opt/lib/libdrm_amdgpu.so.1":                         "amdgpu-drm-spack",
		"/opt/cray/pe/lib64/libcraymath.so.1":                            "craymath-cray",
		"/opt/rocm/lib/libMIOpen.so.1":                                   "MIOpen-rocm",
		"/lib64/libc.so.6":                                               "",
		"/lib64/libtinfo.so.6":                                           "",
	}
	for path, want := range cases {
		if got := DeriveLibraryTag(path); got != want {
			t.Errorf("DeriveLibraryTag(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestDeriveLibraryTagsDedup(t *testing.T) {
	got := DeriveLibraryTags([]string{
		"/opt/siren/lib/siren.so",
		"/lib64/libc.so.6",
		"/lib64/libpthread.so.0",
		"/lib64/libpthread.so.0",
	})
	if !reflect.DeepEqual(got, []string{"siren", "pthread"}) {
		t.Errorf("tags = %q", got)
	}
}

func TestUserStatsSortingAndCategories(t *testing.T) {
	d := NewDataset([]*postprocess.ProcessRecord{
		rec(2000, "j1", "/usr/bin/bash", "system"),
		rec(2000, "j2", "/usr/bin/bash", "system"),
		rec(2000, "j2", "/users/u/x", "user"),
		rec(3000, "j3", "/usr/bin/python3.10", "python"),
	})
	stats := d.UserStats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].User != "user_1" || stats[0].Jobs != 2 {
		t.Errorf("row 0 = %+v", stats[0])
	}
	if stats[0].SystemProcs != 2 || stats[0].UserProcs != 1 || stats[0].PythonProcs != 0 {
		t.Errorf("row 0 categories = %+v", stats[0])
	}
	if stats[1].PythonProcs != 1 || stats[1].TotalProcs != 1 {
		t.Errorf("row 1 = %+v", stats[1])
	}
}

func TestUserNamingByUIDOrder(t *testing.T) {
	d := NewDataset([]*postprocess.ProcessRecord{
		rec(5000, "j", "/usr/bin/x", "system"),
		rec(1000, "j", "/usr/bin/x", "system"),
	})
	if d.UserName(1000) != "user_1" || d.UserName(5000) != "user_2" {
		t.Errorf("names: %s %s", d.UserName(1000), d.UserName(5000))
	}
	if d.UserName(9999) == "" {
		t.Error("unknown UID should still produce a name")
	}
	if got := d.Users(); !reflect.DeepEqual(got, []string{"user_1", "user_2"}) {
		t.Errorf("Users = %q", got)
	}
}

func TestTopSystemExecutables(t *testing.T) {
	d := NewDataset([]*postprocess.ProcessRecord{
		rec(1, "j1", "/usr/bin/srun", "system", withObjectsH("3:a:b")),
		rec(2, "j2", "/usr/bin/srun", "system", withObjectsH("3:c:d")),
		rec(1, "j1", "/usr/bin/rm", "system", withObjectsH("3:a:b")),
		rec(1, "j1", "/usr/bin/rm", "system", withObjectsH("3:a:b")),
		rec(1, "j1", "/users/u/app", "user"),
	})
	top := d.TopSystemExecutables(0)
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Path != "/usr/bin/srun" || top[0].UniqueUsers != 2 || top[0].UniqueObjectsH != 2 {
		t.Errorf("row 0 = %+v", top[0])
	}
	if top[1].Processes != 2 || top[1].UniqueObjectsH != 1 {
		t.Errorf("row 1 = %+v", top[1])
	}
	if d.SystemExecutableCount() != 2 {
		t.Errorf("system exe count = %d", d.SystemExecutableCount())
	}
	if got := d.TopSystemExecutables(1); len(got) != 1 {
		t.Errorf("topN truncation failed")
	}
}

func TestDeviatingLibraries(t *testing.T) {
	d := NewDataset([]*postprocess.ProcessRecord{
		rec(1, "j", "/usr/bin/bash", "system", withObjects("/lib64/libtinfo.so.6", "/lib64/libc.so.6")),
		rec(1, "j", "/usr/bin/bash", "system", withObjects("/lib64/libtinfo.so.6", "/lib64/libc.so.6")),
		rec(1, "j", "/usr/bin/bash", "system", withObjects("/pfs/SW/env/lib/libtinfo.so.6", "/lib64/libc.so.6", "/lib64/libm.so.6")),
	})
	sets := d.DeviatingLibraries("/usr/bin/bash")
	if len(sets) != 2 {
		t.Fatalf("sets = %+v", sets)
	}
	if sets[0].Processes != 2 {
		t.Errorf("majority count = %d", sets[0].Processes)
	}
	if got := sets[1].LibraryVariant("libm"); got != "/lib64/libm.so.6" {
		t.Errorf("libm variant = %q", got)
	}
	if got := sets[0].LibraryVariant("libm"); got != "–" {
		t.Errorf("majority libm = %q", got)
	}
}

func TestCompilerComboOf(t *testing.T) {
	combo := CompilerComboOf([]string{
		"GCC: (SUSE Linux) 13.3.0",
		"clang version 17.0.1 (Cray Inc.)",
		"GCC: (SUSE Linux) 13.3.0", // duplicate collapses
	})
	if combo != "GCC [SUSE], clang [Cray]" {
		t.Errorf("combo = %q", combo)
	}
}

func TestSimilaritySearchRanking(t *testing.T) {
	mk := func(data string) string {
		h, err := ssdeep.HashString(data + data + data + data + data + data + data + data)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := "the quick brown fox jumps over the lazy dog and keeps running through the forest for a long while "
	hBase := mk(base)
	hNear := mk(base[:90] + "X changed tail somewhat here")
	hFar := mk("completely different content with nothing shared at all zzz qqq www 12345 67890 abcdefgh")

	unknown := &postprocess.ProcessRecord{FileH: hBase, StringsH: hBase, SymbolsH: hBase,
		ObjectsH: hBase, ModulesH: hBase, CompilersH: hBase}
	d := NewDataset([]*postprocess.ProcessRecord{
		rec(1, "j", "/scratch/p/icon/bin/icon", "user", withFileH(hBase), func(r *postprocess.ProcessRecord) {
			r.StringsH, r.SymbolsH, r.ObjectsH, r.ModulesH, r.CompilersH = hBase, hBase, hBase, hBase, hBase
		}),
		rec(1, "j", "/scratch/p/icon/bin/icon2", "user", withFileH(hNear), func(r *postprocess.ProcessRecord) {
			r.StringsH, r.SymbolsH, r.ObjectsH, r.ModulesH, r.CompilersH = hNear, hBase, hBase, hBase, hBase
		}),
		rec(1, "j", "/users/u/other/bin/gmx", "user", withFileH(hFar)),
		rec(1, "j", "/scratch/p/run/a.out", "user", withFileH(hBase)), // the unknown itself: excluded
	})
	rows := d.SimilaritySearch(unknown, 0, ssdeep.BackendWeighted)
	if len(rows) < 1 {
		t.Fatal("no rows")
	}
	if rows[0].Avg != 100 || rows[0].Label != "icon" {
		t.Errorf("row 0 = %+v", rows[0])
	}
	for _, r := range rows {
		if r.Label == UnknownLabel {
			t.Error("UNKNOWN instances must not appear in the ranking")
		}
	}
	if len(rows) >= 2 && rows[1].Avg >= rows[0].Avg {
		t.Error("not sorted")
	}
}

func TestPythonInterpretersAndPackages(t *testing.T) {
	d := NewDataset([]*postprocess.ProcessRecord{
		rec(1, "j1", "/usr/bin/python3.10", "python", withScript("/u/a.py", "3:aa:bb"), withImports("heapq", "numpy")),
		rec(2, "j2", "/usr/bin/python3.10", "python", withScript("/u/b.py", "3:cc:dd"), withImports("heapq")),
		rec(2, "j3", "/usr/bin/python3.6", "python", withScript("/u/c.py", "3:ee:ff"), withImports("heapq", "mpi4py")),
	})
	rows := d.PythonInterpreters()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Interpreter != "python3.10" || rows[0].UniqueUsers != 2 || rows[0].UniqueScriptH != 2 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	pkgs := d.PythonPackages()
	byPkg := map[string]PackageStat{}
	for _, p := range pkgs {
		byPkg[p.Package] = p
	}
	if byPkg["heapq"].UniqueUsers != 2 || byPkg["heapq"].Processes != 3 {
		t.Errorf("heapq = %+v", byPkg["heapq"])
	}
	if byPkg["mpi4py"].UniqueScripts != 1 {
		t.Errorf("mpi4py = %+v", byPkg["mpi4py"])
	}
}

func TestMatrices(t *testing.T) {
	d := NewDataset([]*postprocess.ProcessRecord{
		rec(1, "j1", "/users/u/janko/janko", "user",
			withCompilers("GCC: (SUSE Linux) 13.3.0", "GCC: (HPE) 12.2.0"),
			withObjects("/opt/siren/lib/siren.so", "/lib64/libpthread.so.0")),
		rec(1, "j2", "/users/u/tools/gzip", "user",
			withCompilers("Linker: LLD 17.0.0 (AMD)"),
			withObjects("/opt/siren/lib/siren.so")),
	})
	cm := d.CompilerMatrix()
	if !cm.Used("janko", "GCC [SUSE]") || !cm.Used("janko", "GCC [HPE]") {
		t.Errorf("janko compilers: %+v", cm.Bits["janko"])
	}
	if !cm.Used("gzip", "LLD [AMD]") || cm.Used("gzip", "GCC [SUSE]") {
		t.Errorf("gzip compilers: %+v", cm.Bits["gzip"])
	}
	lm := d.LibraryMatrix()
	if !lm.Used("janko", "pthread") || !lm.Used("janko", "siren") {
		t.Errorf("janko libs: %+v", lm.Bits["janko"])
	}
	if lm.Used("gzip", "pthread") || !lm.Used("gzip", "siren") {
		t.Errorf("gzip libs: %+v", lm.Bits["gzip"])
	}
	if len(lm.Rows) != 2 || len(lm.Cols) != 2 {
		t.Errorf("matrix dims: rows=%v cols=%v", lm.Rows, lm.Cols)
	}
}
