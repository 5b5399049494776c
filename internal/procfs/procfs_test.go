package procfs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
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

// parseMapsSplit is ParseMaps as it was before it cut lines and fields by
// hand: the oracle TestParseMapsMatchesSplit holds it to, regions and error
// text alike.
func parseMapsSplit(text string) ([]Region, error) {
	var out []Region
	for lineNo, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 {
			return nil, fmt.Errorf("procfs: maps line %d: %q", lineNo+1, line)
		}
		addrs := strings.SplitN(fields[0], "-", 2)
		if len(addrs) != 2 {
			return nil, fmt.Errorf("procfs: maps line %d: bad address range %q", lineNo+1, fields[0])
		}
		start, err := strconv.ParseUint(addrs[0], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("procfs: maps line %d: %v", lineNo+1, err)
		}
		end, err := strconv.ParseUint(addrs[1], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("procfs: maps line %d: %v", lineNo+1, err)
		}
		offset, err := strconv.ParseUint(fields[2], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("procfs: maps line %d: %v", lineNo+1, err)
		}
		inode, err := strconv.ParseUint(fields[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("procfs: maps line %d: %v", lineNo+1, err)
		}
		r := Region{Start: start, End: end, Perms: fields[1], Offset: offset, Dev: fields[3], Inode: inode}
		if len(fields) >= 6 {
			r.Path = fields[5]
		}
		out = append(out, r)
	}
	return out, nil
}

// TestParseMapsMatchesSplit: the hand-cut ParseMaps returns exactly what the
// Split/Fields version returned — the same regions (nil when there are
// none) or the same error text — on rendered maps, on hand-picked edges
// (blank lines, CR, tabs, Unicode white space, bad lines), and on random
// text drawn from the bytes maps lines are made of.
func TestParseMapsMatchesSplit(t *testing.T) {
	line := "7f0000000000-7f0000021000 r-xp 00001000 fd:00 1234                    /lib64/libc.so.6"
	inputs := []string{
		"", "\n", "\n \n", " \t\r\v\f", line, line + "\n", line + "\r\n" + line + "\r\n",
		line + "\n\n\n" + line, "\t" + strings.ReplaceAll(line, " ", "\t") + "\t",
		line + " extra words after the path", strings.Replace(line, "/lib64/libc.so.6", "/opt/my lib/x.so", 1),
		strings.Replace(line, " ", " ", 1), strings.Replace(line, " ", "\u0085", 2), strings.Replace(line, " ", " ", 3),
		line + "　/tail", "é" + line, line + "\xff",
		"nonsense", "1234 r-xp", "zz-yy r-xp 0 fd:00 1", "1-2-3 r 0 d 1", "-1 r 0 d 1", "1- r 0 d 1",
		"1-2 r zz d 1", "1-2 r 0 d -1", "1-2 r 0 d 99999999999999999999999", line + "\n1-2 r 0 d\n" + line,
		"10000000000000000-1 r 0 d 1",
	}
	var regions []Region
	for i := 0; i < 40; i++ {
		regions = append(regions, Region{Start: uint64(i) << 20, End: uint64(i+1) << 20, Perms: "rw-p", Dev: "08:01", Inode: uint64(i), Path: fmt.Sprintf("/lib/l%d.so", i)})
	}
	inputs = append(inputs, RenderMaps(regions))
	rng := rand.New(rand.NewSource(44))
	alphabet := []string{"0", "7", "a", "f", "z", "-", ":", "/", "[", "p", " ", " ", "\t", "\r", "\n", "\n", "\v", "\u00a0", "\u0085", "é", "\xff"}
	spaces := []string{" ", "  ", "\t", "\v", "\f", "\r", "\u00a0", "\u0085", "\u3000"}
	fields := []string{"400000-401000", "r-xp", "00001000", "fd:00", "1234", "/usr/bin/x", "[heap]", "tail"}
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		if i%3 == 0 {
			for n := rng.Intn(80); n > 0; n-- {
				b.WriteString(alphabet[rng.Intn(len(alphabet))])
			}
		} else {
			// Lines of four to eight fields, separated by random runs of
			// white space, ASCII or not.
			for l := rng.Intn(4); l >= 0; l-- {
				if rng.Intn(4) == 0 {
					b.WriteString(spaces[rng.Intn(len(spaces))])
				}
				for f, n := 0, 4+rng.Intn(5); f < n; f++ {
					if f > 0 {
						b.WriteString(spaces[rng.Intn(len(spaces))])
					}
					b.WriteString(fields[f])
				}
				b.WriteString([]string{"\n", "\r\n", "\n\n", "\n \n"}[rng.Intn(4)])
			}
		}
		text := b.String()
		if i%4 == 1 && len(text) > 0 {
			k := rng.Intn(len(text))
			text = text[:k] + alphabet[rng.Intn(len(alphabet))] + text[k:]
		}
		inputs = append(inputs, text)
	}
	parsed, failed := 0, 0
	for _, text := range inputs {
		got, gerr := ParseMaps(text)
		want, werr := parseMapsSplit(text)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseMaps(%q) = %+v, %v; the Split version gives %+v, %v", text, got, gerr, want, werr)
		}
		if gerr != nil {
			failed++
		} else if len(got) > 0 {
			parsed++
		}
	}
	if parsed < 500 || failed < 500 {
		t.Fatalf("%d inputs parsed to regions and %d failed: the random text no longer covers both", parsed, failed)
	}
}

// TestParseMapsAllocations: rendered maps text costs one allocation, the
// result.
func TestParseMapsAllocations(t *testing.T) {
	var regions []Region
	for i := 0; i < 60; i++ {
		regions = append(regions, Region{Start: uint64(i) << 20, End: uint64(i+1) << 20, Perms: "r-xp", Dev: "fd:00", Inode: uint64(i), Path: "/lib64/libsomething.so.6"})
	}
	text := RenderMaps(regions)
	if got := testing.AllocsPerRun(20, func() {
		if _, err := ParseMaps(text); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("ParseMaps allocates %.0f times, want 1", got)
	}
}
