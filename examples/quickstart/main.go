// Quickstart: the smallest useful SIREN pipeline.
//
// It compiles two synthetic builds of the same application with different
// toolchains, scans them the way siren.so does, and shows that the
// cryptographic identity changes completely while the fuzzy-hash similarity
// stays high — the core observation the framework is built on. It then runs
// both binaries through the full collection pipeline and identifies one
// from the other via the database.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"siren/internal/analysis"
	"siren/internal/collector"
	"siren/internal/core"
	"siren/internal/ldso"
	"siren/internal/procfs"
	"siren/internal/slurm"
	"siren/internal/ssdeep"
	"siren/internal/toolchain"
	"siren/internal/xalt"
)

func main() {
	// 1. Two builds of the same source: GCC vs Cray clang.
	src := toolchain.Source{
		Name: "lammps", Version: "2Aug2023",
		Functions: []string{"lmp_init", "lmp_run", "lmp_output"},
		Strings:   []string{"LAMMPS: classical molecular dynamics"},
		CodeKB:    64,
	}
	gccBuild, err := toolchain.Compile(src, toolchain.BuildOptions{
		Compilers: []toolchain.Compiler{toolchain.GCCSUSE}, Libraries: []string{"libm.so.6", "libc.so.6"}})
	if err != nil {
		log.Fatal(err)
	}
	clangBuild, err := toolchain.Compile(src, toolchain.BuildOptions{
		Compilers: []toolchain.Compiler{toolchain.ClangCray}, Libraries: []string{"libm.so.6", "libc.so.6"}})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Static scan (what the injected constructor computes).
	repA, err := core.ScanBinary(gccBuild.Binary)
	if err != nil {
		log.Fatal(err)
	}
	repB, err := core.ScanBinary(clangBuild.Binary)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("gcc build  compilers:", repA.Compilers)
	fmt.Println("clang build compilers:", repB.Compilers)
	fmt.Println("sha1 equal:           ", xalt.Sha1Hex(gccBuild.Binary) == xalt.Sha1Hex(clangBuild.Binary))
	fi, _ := ssdeep.Compare(repA.FileH, repB.FileH)
	sy, _ := ssdeep.Compare(repA.SymbolsH, repB.SymbolsH)
	fmt.Printf("fuzzy FILE_H score:    %d\n", fi)
	fmt.Printf("fuzzy SYMBOLS_H score: %d\n", sy)

	// 3. Full pipeline: run both binaries as hooked processes, then identify
	// the clang build — an unlabelled a.out — against the labelled software
	// in the database, using only its fuzzy hash.
	pipeline, err := core.NewPipeline(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer pipeline.Close()

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
	fs.Install("/appl/lammps/2Aug2023/bin/lmp", gccBuild.Binary, procfs.FileMeta{})
	fs.Install("/scratch/proj/run/a.out", clangBuild.Binary, procfs.FileMeta{})

	col := collector.New(pipeline.Transport())
	rt := slurm.NewRuntime(fs, procfs.NewTable(0), cache, slurm.NewClock(1733900000))
	rt.Hook = col
	env := map[string]string{
		"LD_PRELOAD": "/opt/siren/lib/siren.so", "SLURM_JOB_ID": "1",
		"SLURM_PROCID": "0", "HOSTNAME": "nid000001",
	}
	for _, exe := range []string{"/appl/lammps/2Aug2023/bin/lmp", "/scratch/proj/run/a.out"} {
		if _, err := rt.Run(exe, slurm.ExecOptions{PPID: 1, UID: 1000, Env: env}, nil); err != nil {
			log.Fatal(err)
		}
	}

	data, stats, err := pipeline.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npipeline: %d messages -> %d process records\n", stats.Messages, stats.Processes)
	matches := analysis.NewFingerprintIndex(data.Records).Search(analysis.Digests{File: repB.FileH}, 3, ssdeep.BackendWeighted)
	for _, m := range matches {
		fmt.Printf("identify a.out: %-40s score=%d (label %s)\n", m.Exe, m.FileS, m.Label)
	}
}
