// Package collector implements the siren.so data-collection logic: the code
// the LD_PRELOAD mechanism injects into every process, here invoked through
// the simulated dynamic linker's constructor/destructor hooks (and reusable
// against real on-disk executables via ScanBinary).
//
// Per the paper (§3.1), the collector gathers, per process:
//
//   - job/process identifiers from the environment and "system calls"
//   - executable file metadata via stat
//   - loaded shared objects (dl_iterate_phdr → our link result)
//   - loaded modules (LOADEDMODULES)
//   - compiler identification strings (.comment section via libelf → elfx)
//   - the memory map (/proc/self/maps)
//   - SSDeep fuzzy hashes of the raw binary (FILE_H), its printable strings
//     (STRINGS_H), and its global symbols (SYMBOLS_H); plus fuzzy hashes of
//     each collected list so partially lost lists remain comparable
//   - for Python interpreters: the input script's metadata and fuzzy hash
//     (LAYER=SCRIPT)
//
// Collection is scoped by executable category (Table 1) to avoid hashing
// /usr/bin/bash two million times, gated on SLURM_PROCID=0 to skip duplicate
// MPI ranks, and *never fails the process*: every internal error increments
// a counter and collection continues with whatever is left.
package collector

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"siren/internal/elfx"
	"siren/internal/lmod"
	"siren/internal/procfs"
	"siren/internal/pyenv"
	"siren/internal/slurm"
	"siren/internal/ssdeep"
	"siren/internal/strescan"
	"siren/internal/wire"
	"siren/internal/xxhash"
)

// Category is the executable class that decides the collection scope.
type Category int

const (
	// CategorySystem covers executables in system directories.
	CategorySystem Category = iota
	// CategoryUser covers executables outside system directories.
	CategoryUser
	// CategoryPython covers Python interpreters installed in system
	// directories (user-installed interpreters count as CategoryUser).
	CategoryPython
)

// String names the category for reports.
func (c Category) String() string {
	switch c {
	case CategorySystem:
		return "system"
	case CategoryUser:
		return "user"
	case CategoryPython:
		return "python"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// systemDirs is the paper's system-directory list (§3.1 "Selective Data
// Collection").
var systemDirs = []string{
	"/etc/", "/dev/", "/usr/", "/bin/", "/boot/", "/lib/",
	"/opt/", "/sbin/", "/sys/", "/proc/", "/var/",
}

// InSystemDir reports whether path lives under one of the system prefixes.
func InSystemDir(path string) bool {
	for _, d := range systemDirs {
		if strings.HasPrefix(path, d) {
			return true
		}
	}
	return false
}

// Categorize classifies an executable path per the paper's rules.
func Categorize(exePath string) Category {
	sys := InSystemDir(exePath)
	if sys && pyenv.IsInterpreterPath(exePath) {
		return CategoryPython
	}
	if sys {
		return CategorySystem
	}
	return CategoryUser
}

// Scope is the Table 1 policy row: which categories of information are
// collected for a given executable class.
type Scope struct {
	FileMetadata bool
	Libraries    bool
	Modules      bool
	Compilers    bool
	MemoryMap    bool
	FileH        bool
	StringsH     bool
	SymbolsH     bool
}

// ScopeFor returns the collection scope for a category (Table 1).
func ScopeFor(c Category) Scope {
	switch c {
	case CategorySystem:
		return Scope{FileMetadata: true, Libraries: true}
	case CategoryPython:
		return Scope{FileMetadata: true, Libraries: true, MemoryMap: true}
	default: // CategoryUser
		return Scope{FileMetadata: true, Libraries: true, Modules: true,
			Compilers: true, MemoryMap: true, FileH: true, StringsH: true, SymbolsH: true}
	}
}

// ScriptScope is the Table 1 column for Python input scripts: metadata and
// the script fuzzy hash only.
func ScriptScope() Scope { return Scope{FileMetadata: true, FileH: true} }

// Stats counts collector activity with atomic counters (safe under the
// campaign's concurrent workers).
type Stats struct {
	ProcessesSeen      atomic.Int64 // hook invocations
	ProcessesCollected atomic.Int64 // passed the PROCID gate
	ProcessesSkipped   atomic.Int64 // non-zero SLURM_PROCID
	MessagesSent       atomic.Int64
	Failures           atomic.Int64 // swallowed internal errors
}

// Collector implements slurm.Hook. One instance serves a whole simulation.
type Collector struct {
	transport   wire.Transport
	maxDatagram int
	stats       *Stats
}

// New creates a collector sending datagrams through transport.
func New(transport wire.Transport) *Collector {
	return &Collector{transport: transport, maxDatagram: wire.MaxDatagram, stats: &Stats{}}
}

// SetMaxDatagram overrides the chunking threshold (ablation knob).
func (c *Collector) SetMaxDatagram(n int) { c.maxDatagram = n }

// Stats exposes the counters.
func (c *Collector) Stats() *Stats { return c.stats }

var _ slurm.Hook = (*Collector)(nil)

// OnProcessStart is the constructor: collect everything known at startup.
func (c *Collector) OnProcessStart(ev slurm.ProcessEvent) {
	c.stats.ProcessesSeen.Add(1)
	if procID := ev.Proc.Getenv("SLURM_PROCID"); procID != "" && procID != "0" {
		// Only rank 0 collects; other ranks would duplicate everything.
		c.stats.ProcessesSkipped.Add(1)
		return
	}
	c.stats.ProcessesCollected.Add(1)
	c.collect(ev, false)
}

// OnProcessExit is the destructor: collect the state that only settles
// during execution — the memory map (Python imports appear here) and the
// Python input script.
func (c *Collector) OnProcessExit(ev slurm.ProcessEvent) {
	if procID := ev.Proc.Getenv("SLURM_PROCID"); procID != "" && procID != "0" {
		return
	}
	c.collect(ev, true)
}

// collect runs one collection pass. atExit selects the destructor subset.
func (c *Collector) collect(ev slurm.ProcessEvent, atExit bool) {
	defer func() {
		if r := recover(); r != nil {
			// The real siren.so must never take down the host process; a
			// panic in collection is swallowed and counted.
			c.stats.Failures.Add(1)
		}
	}()

	proc := ev.Proc
	cat := Categorize(proc.Exe)
	scope := ScopeFor(cat)
	hdr := wire.Header{
		JobID:  proc.Getenv("SLURM_JOB_ID"),
		StepID: proc.Getenv("SLURM_STEP_ID"),
		PID:    proc.PID,
		Hash:   xxhash.Hash128String(proc.Exe).Hex(),
		Host:   proc.Getenv("HOSTNAME"),
		Time:   ev.Time,
		Layer:  wire.LayerSelf,
	}

	if !atExit {
		c.collectStartup(ev, hdr, cat, scope)
	} else {
		c.collectExit(ev, hdr, cat, scope)
	}
}

func (c *Collector) collectStartup(ev slurm.ProcessEvent, hdr wire.Header, cat Category, scope Scope) {
	proc := ev.Proc

	if scope.FileMetadata {
		meta, err := ev.FS.Stat(proc.Exe)
		if err != nil {
			c.stats.Failures.Add(1)
		} else {
			var buf [512]byte
			c.send(hdr, wire.TypeMetadata, appendMetadata(buf[:0], proc, meta, cat))
		}
	}

	if scope.Libraries && ev.Link != nil {
		c.sendList(hdr, wire.TypeObjects, wire.TypeObjectsH, ev.Link.LoadedPaths())
	}

	if scope.Modules {
		c.sendList(hdr, wire.TypeModules, wire.TypeModulesH, lmod.ParseLoadedModules(proc.Getenv("LOADEDMODULES")))
	}

	needBinary := scope.Compilers || scope.FileH || scope.StringsH || scope.SymbolsH
	if !needBinary {
		return
	}
	img, err := ev.FS.ReadFile(proc.Exe)
	if err != nil {
		c.stats.Failures.Add(1)
		return
	}
	report, err := ScanBinary(img)
	if err != nil {
		c.stats.Failures.Add(1)
		return
	}
	if scope.Compilers {
		c.sendList(hdr, wire.TypeCompilers, wire.TypeCompilersH, report.Compilers)
	}
	if scope.FileH {
		c.sendDigest(hdr, wire.TypeFileH, report.FileH)
	}
	if scope.StringsH {
		c.sendDigest(hdr, wire.TypeStringsH, report.StringsH)
	}
	if scope.SymbolsH {
		c.sendDigest(hdr, wire.TypeSymbolsH, report.SymbolsH)
	}
}

func (c *Collector) collectExit(ev slurm.ProcessEvent, hdr wire.Header, cat Category, scope Scope) {
	proc := ev.Proc

	if scope.MemoryMap {
		maps := procfs.AppendMaps(nil, proc.Maps)
		c.send(hdr, wire.TypeMaps, maps)
		c.sendHash(hdr, wire.TypeMapsH, maps)
	}

	// Python input script: metadata plus fuzzy hash under LAYER=SCRIPT.
	if cat == CategoryPython {
		if script := scriptArg(proc); script != "" {
			sh := hdr
			sh.Layer = wire.LayerScript
			meta, err := ev.FS.Stat(script)
			if err != nil {
				c.stats.Failures.Add(1)
				return
			}
			var buf [256]byte
			c.send(sh, wire.TypeMetadata, appendScriptMetadata(buf[:0], script, meta))
			content, err := ev.FS.ReadFile(script)
			if err != nil {
				c.stats.Failures.Add(1)
				return
			}
			c.sendHash(sh, wire.TypeFileH, content)
		}
	}
}

// scriptArg returns the first .py argument of a process command line.
func scriptArg(proc *procfs.Proc) string {
	for _, arg := range proc.Cmdline[1:] {
		if strings.HasSuffix(arg, ".py") {
			return arg
		}
	}
	return ""
}

// send chunks and transmits one record; errors are counted, not returned
// (fire and forget). Each datagram is encoded into a fresh slice of its
// exact length, which the transport keeps (see wire.Transport); content is
// only read, so callers may pass a buffer on their stack.
func (c *Collector) send(hdr wire.Header, typ string, content []byte) {
	hdr.Type = typ
	n, room := wire.ChunkPlan(hdr, len(content), c.maxDatagram)
	for i := 0; i < n; i++ {
		if err := c.transport.Send(wire.Encode(wire.ChunkAt(hdr, content, i, n, room))); err != nil {
			c.stats.Failures.Add(1)
			continue
		}
		c.stats.MessagesSent.Add(1)
	}
}

// sendList transmits a list one item per line under typ and its fuzzy hash
// under hashTyp.
func (c *Collector) sendList(hdr wire.Header, typ, hashTyp string, items []string) {
	size := max(len(items)-1, 0)
	for _, it := range items {
		size += len(it)
	}
	list := make([]byte, 0, size)
	for i, it := range items {
		if i > 0 {
			list = append(list, '\n')
		}
		list = append(list, it...)
	}
	c.send(hdr, typ, list)
	c.sendHash(hdr, hashTyp, list)
}

// sendHash fuzzy-hashes content and transmits the digest under typ.
func (c *Collector) sendHash(hdr wire.Header, typ string, content []byte) {
	var buf [ssdeep.MaxDigestLen]byte
	digest, err := ssdeep.AppendHash(buf[:0], content)
	if err != nil {
		c.stats.Failures.Add(1)
		return
	}
	c.send(hdr, typ, digest)
}

// sendDigest transmits a digest computed earlier under typ.
func (c *Collector) sendDigest(hdr wire.Header, typ, digest string) {
	var buf [ssdeep.MaxDigestLen]byte
	c.send(hdr, typ, append(buf[:0], digest...))
}

// appendMetadata appends the METADATA record: process identity plus stat(2)
// fields, as KEY=VALUE lines.
func appendMetadata(dst []byte, proc *procfs.Proc, meta procfs.FileMeta, cat Category) []byte {
	dst = appendLine(dst, "EXE=", proc.Exe)
	dst = appendLine(dst, "CATEGORY=", cat.String())
	dst = appendInt(dst, "PPID=", int64(proc.PPID))
	dst = appendUint(dst, "UID=", uint64(proc.UID), 10)
	dst = appendUint(dst, "GID=", uint64(proc.GID), 10)
	dst = appendUint(dst, "INODE=", meta.Inode, 10)
	dst = appendInt(dst, "SIZE=", meta.Size)
	dst = appendUint(dst, "MODE=", uint64(meta.Mode), 8)
	dst = appendUint(dst, "OWNER_UID=", uint64(meta.UID), 10)
	dst = appendUint(dst, "OWNER_GID=", uint64(meta.GID), 10)
	dst = appendInt(dst, "ATIME=", meta.Atime)
	dst = appendInt(dst, "MTIME=", meta.Mtime)
	return appendInt(dst, "CTIME=", meta.Ctime)
}

// appendScriptMetadata appends the LAYER=SCRIPT METADATA record.
func appendScriptMetadata(dst []byte, path string, meta procfs.FileMeta) []byte {
	dst = appendLine(dst, "EXE=", path)
	dst = appendLine(dst, "CATEGORY=", "python-script")
	dst = appendUint(dst, "INODE=", meta.Inode, 10)
	dst = appendInt(dst, "SIZE=", meta.Size)
	dst = appendUint(dst, "MODE=", uint64(meta.Mode), 8)
	return appendInt(dst, "MTIME=", meta.Mtime)
}

func appendLine(dst []byte, key, value string) []byte {
	return append(append(append(dst, key...), value...), '\n')
}

func appendInt(dst []byte, key string, v int64) []byte {
	return append(strconv.AppendInt(append(dst, key...), v, 10), '\n')
}

func appendUint(dst []byte, key string, v uint64, base int) []byte {
	return append(strconv.AppendUint(append(dst, key...), v, base), '\n')
}

// BinaryReport is the static-analysis result for one executable image.
type BinaryReport struct {
	Compilers []string // .comment records
	Needed    []string // DT_NEEDED sonames
	Symbols   []string // global symbol names
	FileH     string   // fuzzy hash of the raw image
	StringsH  string   // fuzzy hash of the printable-strings dump
	SymbolsH  string   // fuzzy hash of the global-symbol dump
}

// ScanBinary statically analyses an ELF image: the shared core between the
// simulation hook and the real-host siren-scan tool. It reads the symbol
// table once, and streams the printable-strings dump (strescan.Dump) and the
// global-symbol dump (one name per line) straight into the fuzzy hasher
// instead of building them.
func ScanBinary(img []byte) (*BinaryReport, error) {
	f, err := elfx.Parse(img)
	if err != nil {
		return nil, err
	}
	rep := &BinaryReport{
		Compilers: f.Comment(),
		Needed:    f.Needed(),
	}
	if rep.Symbols, err = f.GlobalSymbolNames(); err != nil {
		return nil, err
	}
	if rep.FileH, err = ssdeep.Hash(img); err != nil {
		return nil, err
	}
	var h ssdeep.Hasher
	for s := range strescan.Strings(img, strescan.DefaultOptions()) {
		h.Write(s)
		h.WriteByte('\n')
	}
	if rep.StringsH, err = digestString(&h); err != nil {
		return nil, err
	}
	h.Reset()
	for _, name := range rep.Symbols {
		h.WriteString(name)
		h.WriteByte('\n')
	}
	if rep.SymbolsH, err = digestString(&h); err != nil {
		return nil, err
	}
	return rep, nil
}

// digestString is h's digest in canonical form.
func digestString(h *ssdeep.Hasher) (string, error) {
	var buf [ssdeep.MaxDigestLen]byte
	d, err := h.AppendDigest(buf[:0])
	return string(d), err
}
