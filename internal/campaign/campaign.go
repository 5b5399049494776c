// Package campaign simulates SIREN's opt-in deployment campaign on a
// LUMI-like system: 12 users with the workload profiles of the paper's
// Table 2 submit jobs over a simulated three-month window; every process
// runs through the simulated Slurm runtime, gets the siren.so preload
// injected (when the job loaded the siren module), and streams collection
// messages to the configured transport.
//
// Workload counts are parameterised by Scale: at Scale=1 the campaign
// regenerates the paper's full magnitudes (≈13.4k jobs, ≈2.3M processes);
// the default Scale=0.02 preserves every ratio and ordering at 1/50 the
// volume. All generation is seeded and deterministic up to goroutine
// interleaving (which affects PIDs and timestamps, not analysis results).
package campaign

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"siren/internal/apps"
	"siren/internal/collector"
	"siren/internal/ldso"
	"siren/internal/lmod"
	"siren/internal/procfs"
	"siren/internal/pyenv"
	"siren/internal/slurm"
	"siren/internal/toolchain"
	"siren/internal/wire"
)

// DefaultScale is the default workload scale factor.
const DefaultScale = 0.02

// DefaultStartTime is 2024-12-11, the campaign's first day on LUMI.
const DefaultStartTime = 1733875200

// Config parameterises a campaign run.
type Config struct {
	// Scale multiplies all job counts (default DefaultScale; 1.0 = paper
	// magnitudes).
	Scale float64
	// Seed drives all pseudo-random decisions.
	Seed int64
	// Transport receives collection datagrams (required).
	Transport wire.Transport
	// Workers bounds concurrent job execution (default GOMAXPROCS).
	Workers int
	// StartTime is the campaign start (default DefaultStartTime).
	StartTime int64
}

// Result summarises a campaign run.
type Result struct {
	Catalog      *apps.Catalog
	Collector    *collector.Collector
	JobsRun      int
	ProcessesRun int
}

// StaticToolPath is a statically linked system tool installed by the
// campaign; the preload can never observe it (paper §2 limitation).
const StaticToolPath = "/usr/bin/ldconfig"

// runState is the shared world of one campaign execution.
type runState struct {
	cfg     Config
	cat     *apps.Catalog
	fs      *procfs.FS
	cache   *ldso.Cache
	cluster *slurm.Cluster
	rt      *slurm.Runtime
	col     *collector.Collector
	modsys  *lmod.System
	procs   atomic.Int64
}

// jobUnit is one job to run: a template and the job's index within it.
type jobUnit struct {
	tmpl   *template
	jobIdx int
	adjust float64
}

// Run executes the campaign and returns its summary. The transport is not
// closed; the caller owns it.
func Run(cfg Config) (*Result, error) {
	st, err := newRunState(cfg)
	if err != nil {
		return nil, err
	}
	// Expand templates into concrete jobs.
	var units []jobUnit
	for _, tmpl := range templates() {
		t := tmpl
		scaled := scaleCount(t.jobs, st.cfg.Scale)
		adjust := float64(t.jobs) * st.cfg.Scale / float64(scaled)
		if adjust < 0.05 {
			adjust = 0.05
		}
		for j := 0; j < scaled; j++ {
			units = append(units, jobUnit{tmpl: &t, jobIdx: j, adjust: adjust})
		}
	}
	return st.execute(units)
}

// Sweep runs every executable of the catalogue once: one job per (app,
// variant), under the siren module and the app's own module, through the
// same collector and transport as Run. Its records hold every catalogued
// executable once, the labelled corpus recognition is evaluated on. Scale
// is ignored; the transport is not closed.
func Sweep(cfg Config) (*Result, error) {
	st, err := newRunState(cfg)
	if err != nil {
		return nil, err
	}
	var units []jobUnit
	for _, app := range st.cat.Apps {
		for vi := range app.Variants {
			units = append(units, jobUnit{tmpl: &template{
				name: "sweep-" + app.Label, user: "sweep", uid: 2000, jobName: app.Label,
				modules: []string{"app-" + app.Label + "/1.0", "siren/1.0"},
				steps:   []step{{app: app.Label, perJob: 1, ranks: 1, fixedVar: vi}},
			}, jobIdx: vi, adjust: 1})
		}
	}
	return st.execute(units)
}

// newRunState builds the world both entry points share: the catalogue, the
// campaign's extra files, the module tree, the cluster, and the collector
// hooked into the Slurm runtime.
func newRunState(cfg Config) (*runState, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("campaign: Transport is required")
	}
	if cfg.Scale <= 0 {
		cfg.Scale = DefaultScale
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.StartTime == 0 {
		cfg.StartTime = DefaultStartTime
	}

	st := &runState{cfg: cfg}
	st.fs = procfs.NewFS()
	st.cache = ldso.NewCache()
	cat, err := apps.Install(st.fs, st.cache, cfg.StartTime)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	st.cat = cat
	if err := st.installExtras(); err != nil {
		return nil, err
	}
	st.buildModules()

	st.cluster = slurm.NewCluster("lumi-sim", 64)
	st.col = collector.New(cfg.Transport)
	st.rt = slurm.NewRuntime(st.fs, procfs.NewTable(1<<21), st.cache, slurm.NewClock(cfg.StartTime))
	st.rt.Hook = st.col
	return st, nil
}

// execute runs units with a bounded worker pool (Effective Go: a buffered
// channel as a semaphore) and summarises the run.
func (st *runState) execute(units []jobUnit) (*Result, error) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, st.cfg.Workers)
	errCh := make(chan error, 1)
	for _, u := range units {
		wg.Add(1)
		sem <- struct{}{}
		go func(u jobUnit) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := st.runJob(u.tmpl, u.jobIdx, u.adjust); err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}(u)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	return &Result{
		Catalog:      st.cat,
		Collector:    st.col,
		JobsRun:      len(units),
		ProcessesRun: int(st.procs.Load()),
	}, nil
}

// scaleCount scales a full-magnitude count, keeping at least one.
func scaleCount(n int, scale float64) int {
	s := int(math.Round(float64(n) * scale))
	if s < 1 {
		s = 1
	}
	return s
}

// installExtras adds campaign-owned files: the static tool, the alternate
// PMI library for srun's third object-set variant, and all Python scripts.
func (st *runState) installExtras() error {
	art, err := toolchain.Compile(
		toolchain.Source{Name: "ldconfig", Version: "system", CodeKB: 8},
		toolchain.BuildOptions{Compilers: []toolchain.Compiler{toolchain.GCCSUSE}, Static: true})
	if err != nil {
		return fmt.Errorf("campaign: building static tool: %w", err)
	}
	st.fs.Install(StaticToolPath, art.Binary, procfs.FileMeta{UID: 0, GID: 0, Mtime: st.cfg.StartTime - 86400*400})

	// A spack-provided PMI: jobs whose environment points at the spack tree
	// make srun load it — srun's third OBJECTS_H variant (Table 3).
	spackPMI := ldso.Library{Soname: "libpmi.so.0", Path: "/appl/spack/env/lib/libpmi.so.0"}
	st.cache.Register(spackPMI)
	st.fs.Install(spackPMI.Path, []byte("\x7fELF-shared-object\x00"+spackPMI.Path), procfs.FileMeta{})

	// Python input scripts for every python step of every template.
	for _, tmpl := range templates() {
		for _, stp := range tmpl.steps {
			if stp.python == "" {
				continue
			}
			for i := 0; i < stp.scriptCount; i++ {
				path := scriptPath(tmpl.user, tmpl.name, i)
				sc := pyenv.GenerateScript(path, int64(i)+st.cfg.Seed, stp.imports(i))
				st.fs.Install(path, sc.Content, procfs.FileMeta{
					UID: tmpl.uid, GID: tmpl.uid, Mtime: st.cfg.StartTime - int64(i)*3600,
				})
			}
		}
	}
	return nil
}

func scriptPath(user, tmplName string, i int) string {
	return fmt.Sprintf("/users/%s/scripts/%s_%02d.py", user, tmplName, i)
}

// buildModules populates the LMOD tree: the Cray PE stack, the siren opt-in
// module, and one module per catalogue application wiring its
// LD_LIBRARY_PATH.
func (st *runState) buildModules() {
	sys := lmod.NewSystem()
	sys.Add(lmod.Module{Name: "craype/2.7.30"})
	sys.Add(lmod.Module{Name: "craype/2.7.31"})
	sys.Add(lmod.Module{Name: "cce/17.0.1"})
	sys.Add(lmod.Module{Name: "PrgEnv-cray/8.5.0", Deps: []string{"craype/2.7.30", "cce/17.0.1"}})
	sys.Add(lmod.Module{Name: "cray-hdf5/1.12.2"})
	sys.Add(lmod.Module{Name: "cray-netcdf/4.9.0", Deps: []string{"cray-hdf5/1.12.2"}})
	sys.Add(lmod.Module{Name: "rocm/6.0.3"})
	sys.Add(lmod.Module{Name: "cray-pmi-exp/6.1", Prepend: map[string]string{"LD_LIBRARY_PATH": "/opt/cray/pe/pmi-exp/lib"}})
	sys.Add(lmod.Module{Name: "spack-env/23.09", Prepend: map[string]string{"LD_LIBRARY_PATH": "/appl/spack/env/lib"}})
	sys.Add(lmod.Module{Name: "siren/1.0", Setenv: map[string]string{"LD_PRELOAD": apps.SirenSOPath}})
	for _, app := range st.cat.Apps {
		name := "app-" + app.Label
		var prep map[string]string
		if env := appEnvOf(st.cat, app.Label); env["LD_LIBRARY_PATH"] != "" {
			prep = map[string]string{"LD_LIBRARY_PATH": env["LD_LIBRARY_PATH"]}
		}
		sys.Add(lmod.Module{Name: name + "/1.0", Prepend: prep})
	}
	st.modsys = sys
}

func appEnvOf(cat *apps.Catalog, label string) map[string]string {
	if a := cat.App(label); a != nil {
		return a.Env()
	}
	return map[string]string{}
}
