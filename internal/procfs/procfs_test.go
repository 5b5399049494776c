package procfs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestFSInstallAndRead(t *testing.T) {
	fs := NewFS()
	fs.Install("/usr/bin/bash", []byte("elf-bytes"), FileMeta{UID: 0, GID: 0, Mtime: 1700000000})
	data, err := fs.ReadFile("/usr/bin/bash")
	if err != nil || string(data) != "elf-bytes" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	meta, err := fs.Stat("/usr/bin/bash")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Inode == 0 || meta.Size != 9 || meta.Mode != 0o755 {
		t.Errorf("meta = %+v", meta)
	}
	if _, err := fs.ReadFile("/no/such"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing file error = %v", err)
	}
	if fs.Exists("/no/such") || !fs.Exists("/usr/bin/bash") {
		t.Error("Exists wrong")
	}
}

func TestFSInodesUnique(t *testing.T) {
	fs := NewFS()
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		f := fs.Install("/f"+string(rune('a'+i%26))+strings.Repeat("x", i/26), nil, FileMeta{})
		if seen[f.Meta.Inode] {
			t.Fatalf("inode %d reused", f.Meta.Inode)
		}
		seen[f.Meta.Inode] = true
	}
}

func TestFSList(t *testing.T) {
	fs := NewFS()
	fs.Install("/usr/bin/ls", nil, FileMeta{})
	fs.Install("/usr/bin/cat", nil, FileMeta{})
	fs.Install("/opt/app", nil, FileMeta{})
	got := fs.List("/usr/bin/")
	if !reflect.DeepEqual(got, []string{"/usr/bin/cat", "/usr/bin/ls"}) {
		t.Errorf("List = %q", got)
	}
	if fs.Len() != 3 {
		t.Errorf("Len = %d", fs.Len())
	}
}

func TestMapsRoundTrip(t *testing.T) {
	regions := []Region{
		{Start: 0x400000, End: 0x401000, Perms: "r-xp", Offset: 0, Dev: "fd:00", Inode: 1234, Path: "/usr/bin/bash"},
		{Start: 0x7f0000000000, End: 0x7f0000021000, Perms: "r--p", Offset: 0x1000, Dev: "fd:00", Inode: 99, Path: "/lib64/libtinfo.so.6"},
		{Start: 0x7ffe00000000, End: 0x7ffe00021000, Perms: "rw-p", Offset: 0, Dev: "00:00", Inode: 0, Path: "[stack]"},
		{Start: 0x7f0000100000, End: 0x7f0000101000, Perms: "rw-p", Offset: 0, Dev: "00:00", Inode: 0},
	}
	text := RenderMaps(regions)
	parsed, err := ParseMaps(text)
	if err != nil {
		t.Fatalf("ParseMaps: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(parsed, normaliseDev(regions)) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", parsed, regions)
	}
}

func normaliseDev(rs []Region) []Region {
	out := make([]Region, len(rs))
	copy(out, rs)
	for i := range out {
		if out[i].Dev == "" {
			out[i].Dev = "00:00"
		}
	}
	return out
}

func TestParseMapsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"nonsense", "1234 r-xp", "zz-yy r-xp 0 fd:00 1"} {
		if _, err := ParseMaps(bad); err == nil {
			t.Errorf("ParseMaps(%q) should fail", bad)
		}
	}
	if rs, err := ParseMaps("\n \n"); err != nil || rs != nil {
		t.Errorf("blank input: %v, %v", rs, err)
	}
}

func TestMapsQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		var regions []Region
		base := uint64(0x400000)
		for i := 0; i < int(n)%20; i++ {
			size := uint64(0x1000 * (1 + rng.Intn(64)))
			r := Region{
				Start: base, End: base + size,
				Perms: []string{"r-xp", "r--p", "rw-p"}[rng.Intn(3)],
				Dev:   "fd:00", Inode: uint64(rng.Intn(100000)),
			}
			if rng.Intn(3) > 0 {
				r.Path = "/lib64/lib" + string(rune('a'+rng.Intn(26))) + ".so"
			}
			base += size + 0x1000
			regions = append(regions, r)
		}
		parsed, err := ParseMaps(RenderMaps(regions))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(parsed, regions) || (regions == nil && parsed == nil) || len(regions) == 0 && parsed == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMappedPaths(t *testing.T) {
	regions := []Region{
		{Path: "/usr/bin/python3.10"},
		{Path: "/usr/lib64/libpython3.10.so"},
		{Path: "/usr/bin/python3.10"}, // duplicate mapping (r-x + r--)
		{Path: "[heap]"},
		{Path: ""},
		{Path: "/usr/lib64/python3.10/lib-dynload/_heapq.so"},
	}
	got := MappedPaths(regions)
	want := []string{"/usr/bin/python3.10", "/usr/lib64/libpython3.10.so", "/usr/lib64/python3.10/lib-dynload/_heapq.so"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MappedPaths = %q, want %q", got, want)
	}
}

func TestSpawnExecExit(t *testing.T) {
	tbl := NewTable(0)
	env := map[string]string{"SLURM_JOB_ID": "42"}
	p, err := tbl.Spawn(1, "/usr/bin/bash", env, 1000, 1000, 1700000000)
	if err != nil {
		t.Fatal(err)
	}
	if p.PID < 2 || p.PPID != 1 || p.Exe != "/usr/bin/bash" {
		t.Errorf("proc = %+v", p)
	}
	// Env must be cloned, not aliased.
	env["SLURM_JOB_ID"] = "43"
	if p.Getenv("SLURM_JOB_ID") != "42" {
		t.Error("env aliased into process")
	}

	// exec() keeps the PID, swaps the image.
	oldPID := p.PID
	p2, err := tbl.Exec(p.PID, "/scratch/user/a.out", 1700000001)
	if err != nil {
		t.Fatal(err)
	}
	if p2.PID != oldPID || p2.Exe != "/scratch/user/a.out" {
		t.Errorf("after exec: %+v", p2)
	}
	if p2.Getenv("SLURM_JOB_ID") != "42" {
		t.Error("exec dropped the environment")
	}

	if err := tbl.Exit(p.PID, 1700000002); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(oldPID); ok {
		t.Error("exited process still visible")
	}
	if err := tbl.Exit(oldPID, 0); err == nil {
		t.Error("double exit should fail")
	}
	if _, err := tbl.Exec(oldPID, "/x", 0); err == nil {
		t.Error("exec on dead PID should fail")
	}
}

func TestPIDReuseAfterWrap(t *testing.T) {
	tbl := NewTable(8) // PIDs 2..8
	var first *Proc
	for i := 0; i < 7; i++ {
		p, err := tbl.Spawn(1, "/bin/x", nil, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = p
		}
	}
	// Table full now.
	if _, err := tbl.Spawn(1, "/bin/y", nil, 0, 0, 0); err == nil {
		t.Fatal("expected PID exhaustion")
	}
	if err := tbl.Exit(first.PID, 1); err != nil {
		t.Fatal(err)
	}
	p, err := tbl.Spawn(1, "/bin/z", nil, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.PID != first.PID {
		t.Errorf("expected PID %d reuse, got %d", first.PID, p.PID)
	}
	if tbl.Spawned() != 8 {
		t.Errorf("Spawned = %d, want 8", tbl.Spawned())
	}
}

func TestConcurrentSpawn(t *testing.T) {
	tbl := NewTable(0)
	done := make(chan int, 8)
	for g := 0; g < 8; g++ {
		go func() {
			n := 0
			for i := 0; i < 200; i++ {
				if p, err := tbl.Spawn(1, "/bin/p", nil, 0, 0, 0); err == nil {
					n++
					if i%3 == 0 {
						tbl.Exit(p.PID, 1)
					}
				}
			}
			done <- n
		}()
	}
	total := 0
	for g := 0; g < 8; g++ {
		total += <-done
	}
	if total != 1600 {
		t.Errorf("spawned %d, want 1600", total)
	}
	if tbl.Spawned() != 1600 {
		t.Errorf("Spawned = %d", tbl.Spawned())
	}
}

func BenchmarkRenderParseMaps(b *testing.B) {
	var regions []Region
	base := uint64(0x7f0000000000)
	for i := 0; i < 60; i++ {
		regions = append(regions, Region{
			Start: base, End: base + 0x21000, Perms: "r-xp", Dev: "fd:00",
			Inode: uint64(i), Path: "/lib64/libsomething.so.6",
		})
		base += 0x100000
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		text := RenderMaps(regions)
		if _, err := ParseMaps(text); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendMapsMatchesPrintf holds the strconv rendering of a maps line to
// the fmt verbs it replaced, across the zero-padding edges: zero, values
// wider than the pad, and the empty device and path.
func TestAppendMapsMatchesPrintf(t *testing.T) {
	regions := []Region{
		{},
		{Start: 0x400000, End: 0x401000, Perms: "r-xp", Offset: 0x1000, Dev: "fd:00", Inode: 1234, Path: "/usr/bin/cat"},
		{Start: 0xffffffffffffffff, End: 0x1000000000000, Perms: "rw-p", Offset: 0xfffffffff, Inode: 0, Path: "[heap]"},
		{Start: 0xf, End: 0x10, Perms: "---p", Offset: 0xf, Dev: "08:01"},
	}
	var want strings.Builder
	for _, r := range regions {
		dev := r.Dev
		if dev == "" {
			dev = "00:00"
		}
		fmt.Fprintf(&want, "%012x-%012x %s %08x %s %d", r.Start, r.End, r.Perms, r.Offset, dev, r.Inode)
		if r.Path != "" {
			want.WriteString(strings.Repeat(" ", 20) + r.Path)
		}
		want.WriteByte('\n')
	}
	if got := RenderMaps(regions); got != want.String() {
		t.Errorf("RenderMaps:\n got %q\nwant %q", got, want.String())
	}
}
