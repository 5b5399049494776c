// Package slurm simulates the Slurm workload manager surface that SIREN
// observes: job and step identity, the environment variables injected into
// every task (SLURM_JOB_ID, SLURM_STEP_ID, SLURM_PROCID, HOSTNAME), and a
// process runtime that launches executables through the simulated dynamic
// linker, firing constructor/destructor hooks exactly when the real
// LD_PRELOAD mechanism would.
package slurm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"siren/internal/ldso"
	"siren/internal/procfs"
)

// Cluster models the machine: a name and a set of compute nodes.
type Cluster struct {
	Name    string
	nodes   []string
	nextJob atomic.Int64
}

// NewCluster creates a cluster with n nodes named nid001001, nid001002, ….
func NewCluster(name string, n int) *Cluster {
	c := &Cluster{Name: name}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, fmt.Sprintf("nid%06d", 1001+i))
	}
	return c
}

// Nodes returns the node names.
func (c *Cluster) Nodes() []string { return append([]string(nil), c.nodes...) }

// Node returns node i modulo the node count.
func (c *Cluster) Node(i int) string { return c.nodes[i%len(c.nodes)] }

// NextJobID allocates a cluster-unique job ID (thread-safe).
func (c *Cluster) NextJobID() int { return int(c.nextJob.Add(1)) }

// Job carries the identity Slurm assigns to one submitted job.
type Job struct {
	ID   int
	Name string // user-chosen job name: arbitrary, the unreliable identifier
	User string
	UID  uint32
	GID  uint32
	Node string
}

// TaskEnv renders the environment Slurm injects into a task of the given
// step and rank, merged over base (base wins nothing; Slurm overwrites).
func (j Job) TaskEnv(base map[string]string, stepID, procID int) map[string]string {
	env := procfs.CloneEnv(base)
	env["SLURM_JOB_ID"] = fmt.Sprintf("%d", j.ID)
	env["SLURM_JOB_NAME"] = j.Name
	env["SLURM_STEP_ID"] = fmt.Sprintf("%d", stepID)
	env["SLURM_PROCID"] = fmt.Sprintf("%d", procID)
	env["HOSTNAME"] = j.Node
	env["USER"] = j.User
	return env
}

// Clock is a simulated wall clock with one-second granularity, shared by a
// whole simulation so records sort consistently. It is safe for concurrent
// use.
type Clock struct {
	mu  sync.Mutex
	now int64
}

// NewClock starts at the given unix time.
func NewClock(start int64) *Clock { return &Clock{now: start} }

// Now returns the current simulated time.
func (c *Clock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d seconds and returns the new time.
func (c *Clock) Advance(d int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// Hook receives process lifecycle events, the way siren.so's constructor and
// destructor do. Implementations must tolerate any process state and must
// not fail the process (graceful-failure contract).
type Hook interface {
	// OnProcessStart fires after the dynamic linker loaded the preload,
	// before main() — the __attribute__((constructor)) moment.
	OnProcessStart(ev ProcessEvent)
	// OnProcessExit fires at normal process termination — the destructor.
	// It does not fire when the image is replaced by exec() or the process
	// is killed, matching real destructor semantics.
	OnProcessExit(ev ProcessEvent)
}

// ProcessEvent is the context handed to hooks.
type ProcessEvent struct {
	Proc *procfs.Proc
	Link *ldso.LinkResult
	FS   *procfs.FS
	Time int64
}

// Runtime launches simulated processes: it resolves the executable in the
// filesystem, runs the dynamic linker, installs the memory map, and fires
// hooks when (and only when) the SIREN preload actually loaded.
type Runtime struct {
	FS     *procfs.FS
	Table  *procfs.Table
	Cache  *ldso.Cache
	Clock  *Clock
	Hook   Hook   // may be nil
	HookSO string // soname whose successful preload triggers Hook (default "siren.so")
}

// NewRuntime wires a runtime from its parts.
func NewRuntime(fs *procfs.FS, table *procfs.Table, cache *ldso.Cache, clock *Clock) *Runtime {
	return &Runtime{FS: fs, Table: table, Cache: cache, Clock: clock, HookSO: "siren.so"}
}

// ExecOptions configure one process execution.
type ExecOptions struct {
	PPID      int
	UID, GID  uint32
	Env       map[string]string
	Container bool
	ExtraMaps []procfs.Region // e.g. Python extension modules
	Runtime   int64           // seconds between start and exit (default 1)
	Killed    bool            // abnormal termination: destructor does not run
}

// Run executes the complete lifecycle of one process: spawn, link, hooks,
// optional body (in which children may be launched), exit. It returns the
// process (already exited). Errors come only from simulation misuse (missing
// executable); data-collection failures never propagate.
func (rt *Runtime) Run(exePath string, opts ExecOptions, body func(p *procfs.Proc) error) (*procfs.Proc, error) {
	img, err := rt.FS.ReadFile(exePath)
	if err != nil {
		return nil, fmt.Errorf("slurm: exec %s: %w", exePath, err)
	}
	now := rt.Clock.Now()
	proc, err := rt.Table.Spawn(opts.PPID, exePath, opts.Env, opts.UID, opts.GID, now)
	if err != nil {
		return nil, err
	}
	proc.Container = opts.Container

	link, err := ldso.Link(img, exePath, proc.Env, rt.Cache, rt.FS, opts.Container)
	if err != nil {
		// Not a loadable image: the kernel would refuse exec. Clean up.
		rt.Table.Exit(proc.PID, now)
		return nil, err
	}
	proc.Maps = append(link.Maps, opts.ExtraMaps...)

	hooked := rt.Hook != nil && !link.Static && link.HasPreload(rt.hookSO())
	if hooked {
		rt.Hook.OnProcessStart(ProcessEvent{Proc: proc, Link: link, FS: rt.FS, Time: now})
	}

	if body != nil {
		if err := body(proc); err != nil {
			rt.Table.Exit(proc.PID, rt.Clock.Now())
			return proc, err
		}
	}

	runFor := opts.Runtime
	if runFor <= 0 {
		runFor = 1
	}
	end := rt.Clock.Advance(runFor)
	if hooked && !opts.Killed {
		rt.Hook.OnProcessExit(ProcessEvent{Proc: proc, Link: link, FS: rt.FS, Time: end})
	}
	if err := rt.Table.Exit(proc.PID, end); err != nil {
		return proc, err
	}
	return proc, nil
}

// RunExec models a process that replaces itself via exec(): first image
// start hooks fire, then the image is swapped (no destructor), then the new
// image's start and exit hooks fire. Both images share PID and, because the
// clock only advances at exit, the same start timestamp — the collision case
// the executable-path hash disambiguates.
func (rt *Runtime) RunExec(firstExe, secondExe string, opts ExecOptions) (*procfs.Proc, error) {
	img1, err := rt.FS.ReadFile(firstExe)
	if err != nil {
		return nil, fmt.Errorf("slurm: exec %s: %w", firstExe, err)
	}
	img2, err := rt.FS.ReadFile(secondExe)
	if err != nil {
		return nil, fmt.Errorf("slurm: exec %s: %w", secondExe, err)
	}
	now := rt.Clock.Now()
	proc, err := rt.Table.Spawn(opts.PPID, firstExe, opts.Env, opts.UID, opts.GID, now)
	if err != nil {
		return nil, err
	}
	proc.Container = opts.Container

	link1, err := ldso.Link(img1, firstExe, proc.Env, rt.Cache, rt.FS, opts.Container)
	if err != nil {
		rt.Table.Exit(proc.PID, now)
		return nil, err
	}
	proc.Maps = link1.Maps
	if rt.Hook != nil && !link1.Static && link1.HasPreload(rt.hookSO()) {
		rt.Hook.OnProcessStart(ProcessEvent{Proc: proc, Link: link1, FS: rt.FS, Time: now})
	}

	// exec(): same PID, same second, new image; old destructors never run.
	if _, err := rt.Table.Exec(proc.PID, secondExe, now); err != nil {
		return proc, err
	}
	link2, err := ldso.Link(img2, secondExe, proc.Env, rt.Cache, rt.FS, opts.Container)
	if err != nil {
		rt.Table.Exit(proc.PID, now)
		return proc, err
	}
	proc.Maps = link2.Maps
	hooked2 := rt.Hook != nil && !link2.Static && link2.HasPreload(rt.hookSO())
	if hooked2 {
		rt.Hook.OnProcessStart(ProcessEvent{Proc: proc, Link: link2, FS: rt.FS, Time: now})
	}

	runFor := opts.Runtime
	if runFor <= 0 {
		runFor = 1
	}
	end := rt.Clock.Advance(runFor)
	if hooked2 && !opts.Killed {
		rt.Hook.OnProcessExit(ProcessEvent{Proc: proc, Link: link2, FS: rt.FS, Time: end})
	}
	if err := rt.Table.Exit(proc.PID, end); err != nil {
		return proc, err
	}
	return proc, nil
}

func (rt *Runtime) hookSO() string {
	if rt.HookSO == "" {
		return "siren.so"
	}
	return rt.HookSO
}
