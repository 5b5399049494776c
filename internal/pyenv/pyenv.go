// Package pyenv models Python interpreters, input scripts, and the
// memory-mapped package extensions from which SIREN recovers imported
// packages.
//
// Python defeats executable-name identification: every Python job shows up
// as e.g. /usr/bin/python3.10 regardless of what it computes. SIREN's answer
// (paper §4.4) is to record the interpreter's memory-mapped files — compiled
// C extensions like _heapq.cpython-310-x86_64-linux-gnu.so or
// numpy/core/_multiarray_umath...so — and post-process them back into
// package names, plus to fuzzy-hash the input script itself (SCRIPT_H).
package pyenv

import (
	"fmt"
	"sort"
	"strings"

	"siren/internal/procfs"
	"siren/internal/xxhash"
)

// Interpreter is one installed Python.
type Interpreter struct {
	Version string // "3.10"
	Path    string // "/usr/bin/python3.10"
	LibDir  string // "/usr/lib64/python3.10"
}

// Executable reports the basename SIREN sees, e.g. "python3.10".
func (it Interpreter) Executable() string {
	if i := strings.LastIndexByte(it.Path, '/'); i >= 0 {
		return it.Path[i+1:]
	}
	return it.Path
}

// stdlibExtensions are packages shipped as compiled extensions in
// lib-dynload; importing them maps a .so into the interpreter. The leading
// underscore (CPython convention for the C half of a module) is stripped
// during post-processing, matching the names in the paper's Figure 3.
var stdlibExtensions = map[string]string{
	"heapq": "_heapq", "struct": "_struct", "math": "math",
	"posixsubprocess": "_posixsubprocess", "select": "select",
	"blake2": "_blake2", "hashlib": "_hashlib", "bz2": "_bz2",
	"lzma": "_lzma", "zlib": "zlib", "fcntl": "fcntl", "array": "array",
	"binascii": "binascii", "bisect": "_bisect", "cmath": "cmath",
	"csv": "_csv", "ctypes": "_ctypes", "datetime": "_datetime",
	"decimal": "_decimal", "grp": "grp", "json": "_json", "mmap": "mmap",
	"multiprocessing": "_multiprocessing", "opcode": "_opcode",
	"pickle": "_pickle", "queue": "_queue", "random": "_random",
	"sha512": "_sha512", "socket": "_socket", "unicodedata": "unicodedata",
	"zoneinfo": "_zoneinfo", "sha3": "_sha3",
}

// sitePackages are third-party packages installed under site-packages;
// their extension modules live in a package-named directory.
var sitePackages = map[string]string{
	"numpy":  "numpy/core/_multiarray_umath",
	"pandas": "pandas/_libs/lib",
	"scipy":  "scipy/linalg/_fblas",
	"mpi4py": "mpi4py/MPI",
	"torch":  "torch/_C",
}

// KnownPackages lists every package name the simulation can map, sorted.
func KnownPackages() []string {
	out := make([]string, 0, len(stdlibExtensions)+len(sitePackages))
	for p := range stdlibExtensions {
		out = append(out, p)
	}
	for p := range sitePackages {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Script is a synthetic Python input script.
type Script struct {
	Path    string
	Content []byte
	Imports []string
}

// GenerateScript produces a deterministic synthetic script that imports the
// given packages. The body varies with name and seed so distinct scripts get
// distinct SCRIPT_H fuzzy hashes, while edited versions of the same script
// (same name, nearby seed content) stay similar.
func GenerateScript(path string, seed int64, imports []string) Script {
	var sb strings.Builder
	sb.WriteString("#!/usr/bin/env python3\n")
	sb.WriteString("# generated analysis driver\n")
	for _, im := range imports {
		fmt.Fprintf(&sb, "import %s\n", im)
	}
	sb.WriteString("\n\ndef main():\n")
	// Deterministic body: a few dozen pseudo-statements derived from seed.
	h := uint64(seed)
	for i := 0; i < 40; i++ {
		h = xxhash.Sum64Seed([]byte(path), h)
		fmt.Fprintf(&sb, "    x_%d = compute_%d(%d)\n", i, h%17, h%1000)
	}
	sb.WriteString("\n\nif __name__ == '__main__':\n    main()\n")
	return Script{Path: path, Content: []byte(sb.String()), Imports: append([]string(nil), imports...)}
}

// ExtensionPath returns the on-disk .so path that importing pkg maps into
// interpreter it, and whether the package is known.
func ExtensionPath(it Interpreter, pkg string) (string, bool) {
	tag := "cpython-" + strings.ReplaceAll(it.Version, ".", "") + "-x86_64-linux-gnu"
	if ext, ok := stdlibExtensions[pkg]; ok {
		return fmt.Sprintf("%s/lib-dynload/%s.%s.so", it.LibDir, ext, tag), true
	}
	if ext, ok := sitePackages[pkg]; ok {
		return fmt.Sprintf("%s/site-packages/%s.%s.so", it.LibDir, ext, tag), true
	}
	return "", false
}

// MapRegions synthesises the memory-map regions that importing the given
// packages adds to an interpreter process.
func MapRegions(it Interpreter, imports []string, baseAddr uint64) []procfs.Region {
	var out []procfs.Region
	addr := baseAddr
	for _, pkg := range imports {
		path, ok := ExtensionPath(it, pkg)
		if !ok {
			continue // pure-Python module: no mapped extension
		}
		size := uint64(0x8000 + xxhash.Sum64String(pkg)%0x40000&^0xFFF)
		out = append(out, procfs.Region{
			Start: addr, End: addr + size, Perms: "r-xp", Dev: "fd:00",
			Inode: xxhash.Sum64String(path) % 1 << 20, Path: path,
		})
		addr += size + 0x10000
	}
	return out
}

// ExtractImports recovers package names from an interpreter's memory map —
// SIREN's post-processing step. It returns the distinct names sorted.
//
// Recognition: files under a pythonX.Y lib directory, either in lib-dynload
// (stdlib extension; strip the leading underscore and the cpython suffix) or
// under site-packages (take the first path component = distribution name).
func ExtractImports(regions []procfs.Region) []string {
	seen := make(map[string]bool)
	for _, r := range regions {
		if strings.HasPrefix(r.Path, "[") {
			continue // a pseudo mapping ("[heap]"), not a file
		}
		if name, ok := packageFromPath(r.Path); ok {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func packageFromPath(path string) (string, bool) {
	if !strings.Contains(path, "/python") || !strings.HasSuffix(path, ".so") {
		return "", false
	}
	if i := strings.Index(path, "/lib-dynload/"); i >= 0 {
		base := path[i+len("/lib-dynload/"):]
		if j := strings.IndexByte(base, '.'); j >= 0 {
			base = base[:j]
		}
		return strings.TrimPrefix(base, "_"), base != ""
	}
	if i := strings.Index(path, "/site-packages/"); i >= 0 {
		rest := path[i+len("/site-packages/"):]
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			return rest[:j], true
		}
		if j := strings.IndexByte(rest, '.'); j >= 0 {
			return strings.TrimPrefix(rest[:j], "_"), true
		}
	}
	return "", false
}

// IsInterpreterPath reports whether an executable path looks like a Python
// interpreter — the trigger for SIREN's Python-specific collection scope.
func IsInterpreterPath(path string) bool {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if base == "python" {
		return true
	}
	if strings.HasPrefix(base, "python") {
		rest := base[len("python"):]
		for _, r := range rest {
			if (r < '0' || r > '9') && r != '.' {
				return false
			}
		}
		return rest != ""
	}
	return false
}
