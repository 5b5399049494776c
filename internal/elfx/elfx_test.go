package elfx

import (
	"bytes"
	"debug/elf"
	"math/rand"
	"reflect"
	"testing"
)

func buildSample(t *testing.T) []byte {
	t.Helper()
	b := NewBuilder(ETDyn, EMX8664)
	b.SetEntry(0x401000)
	b.SetText([]byte{0x55, 0x48, 0x89, 0xE5, 0xC3})
	b.SetRodata([]byte("icon atmospheric solver v2.6.4\x00NetCDF output enabled\x00"))
	b.SetComment("GCC: (SUSE Linux) 13.3.0", "clang version 17.0.1 (Cray Inc.)")
	b.AddNeeded("libm.so.6")
	b.AddNeeded("libnetcdf.so.19")
	b.AddNeeded("libmpi_cray.so.12")
	b.SetSoname("icon.so")
	b.SetRunpath("/opt/cray/pe/lib64")
	b.AddGlobalFunc("icon_run_timestep", 0x401000, 128)
	b.AddGlobalObject("icon_grid_config", 0x402000, 64)
	b.AddLocalFunc("internal_helper", 0x401100, 32)
	b.AddSymbol(Symbol{Name: "weak_hook", Binding: STBWeak, Type: STTFunc, Section: 1, Value: 0x401200, Size: 8})
	img, err := b.Bytes()
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	return img
}

func TestRoundTripHeader(t *testing.T) {
	img := buildSample(t)
	f, err := Parse(img)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Header.Type != ETDyn || f.Header.Machine != EMX8664 {
		t.Errorf("header = %+v", f.Header)
	}
	if f.Header.Entry != 0x401000 {
		t.Errorf("entry = %#x", f.Header.Entry)
	}
}

func TestRoundTripComment(t *testing.T) {
	f, err := Parse(buildSample(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"GCC: (SUSE Linux) 13.3.0", "clang version 17.0.1 (Cray Inc.)"}
	if got := f.Comment(); !reflect.DeepEqual(got, want) {
		t.Errorf("Comment = %q, want %q", got, want)
	}
}

func TestCommentDeduplicates(t *testing.T) {
	b := NewBuilder(ETExec, EMX8664)
	b.SetComment("GCC: 13.3.0", "GCC: 13.3.0", "rustc version 1.77.0")
	img, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"GCC: 13.3.0", "rustc version 1.77.0"}
	if got := f.Comment(); !reflect.DeepEqual(got, want) {
		t.Errorf("Comment = %q, want %q", got, want)
	}
}

func TestRoundTripNeeded(t *testing.T) {
	f, err := Parse(buildSample(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"libm.so.6", "libnetcdf.so.19", "libmpi_cray.so.12"}
	if got := f.Needed(); !reflect.DeepEqual(got, want) {
		t.Errorf("Needed = %q, want %q", got, want)
	}
	if got := f.Soname(); got != "icon.so" {
		t.Errorf("Soname = %q", got)
	}
}

func TestRoundTripSymbols(t *testing.T) {
	f, err := Parse(buildSample(t))
	if err != nil {
		t.Fatal(err)
	}
	syms, err := f.Symbols()
	if err != nil {
		t.Fatal(err)
	}
	if len(syms) != 4 {
		t.Fatalf("got %d symbols: %+v", len(syms), syms)
	}
	// Locals must come first (spec ordering enforced by the builder).
	if syms[0].Name != "internal_helper" || syms[0].Binding != STBLocal {
		t.Errorf("first symbol = %+v, want local internal_helper", syms[0])
	}
	globals, err := f.GlobalSymbolNames()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"icon_run_timestep", "icon_grid_config", "weak_hook"}
	if !reflect.DeepEqual(globals, want) {
		t.Errorf("globals = %q, want %q", globals, want)
	}
}

// TestCrossCheckDebugELF verifies that images we build are accepted by the
// standard library's ELF parser and agree on every field SIREN extracts.
func TestCrossCheckDebugELF(t *testing.T) {
	img := buildSample(t)
	sf, err := elf.NewFile(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("debug/elf rejects builder output: %v", err)
	}
	defer sf.Close()

	if sf.Type != elf.ET_DYN || sf.Machine != elf.EM_X86_64 {
		t.Errorf("debug/elf header: type=%v machine=%v", sf.Type, sf.Machine)
	}

	libs, err := sf.DynString(elf.DT_NEEDED)
	if err != nil {
		t.Fatalf("DynString: %v", err)
	}
	want := []string{"libm.so.6", "libnetcdf.so.19", "libmpi_cray.so.12"}
	if !reflect.DeepEqual(libs, want) {
		t.Errorf("debug/elf DT_NEEDED = %q, want %q", libs, want)
	}

	syms, err := sf.Symbols()
	if err != nil {
		t.Fatalf("debug/elf Symbols: %v", err)
	}
	if len(syms) != 4 {
		t.Errorf("debug/elf sees %d symbols, want 4", len(syms))
	}

	comment := sf.Section(".comment")
	if comment == nil {
		t.Fatal("debug/elf cannot find .comment")
	}
	data, err := comment.Data()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("GCC: (SUSE Linux) 13.3.0")) {
		t.Errorf(".comment data = %q", data)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		bytes.Repeat([]byte{0}, 128), // no magic
		append([]byte{0x7F, 'E', 'L', 'F', 1}, make([]byte, 128)...), // 32-bit class
	}
	for i, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("case %d: Parse accepted garbage", i)
		}
	}
	if IsELF([]byte("not elf")) {
		t.Error("IsELF misidentified")
	}
	if !IsELF(buildSample(t)) {
		t.Error("IsELF rejected a valid image")
	}
}

func TestParseRejectsTruncatedSections(t *testing.T) {
	img := buildSample(t)
	// Chop the image just after the header: section table now out of bounds.
	if _, err := Parse(img[:HeaderSize+10]); err == nil {
		t.Error("Parse accepted truncated image")
	}
}

func TestEmptyBuilderStillValid(t *testing.T) {
	b := NewBuilder(ETExec, EMX8664)
	img, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if f.Comment() != nil || f.Needed() != nil {
		t.Error("empty builder should have no comment or needed entries")
	}
	syms, err := f.Symbols()
	if err != nil || syms != nil {
		t.Errorf("expected no symbols, got %v (err %v)", syms, err)
	}
	if _, err := elf.NewFile(bytes.NewReader(img)); err != nil {
		t.Errorf("debug/elf rejects minimal image: %v", err)
	}
}

func TestExtraSections(t *testing.T) {
	b := NewBuilder(ETExec, EMX8664)
	b.AddSection(Section{Name: ".note.siren", Type: SHTNote, Data: []byte("hello"), Align: 4})
	img, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	sec := f.Section(".note.siren")
	if sec == nil || string(sec.Data) != "hello" {
		t.Errorf("extra section lost: %+v", sec)
	}

	// Colliding with a managed name must fail.
	b2 := NewBuilder(ETExec, EMX8664)
	b2.AddSection(Section{Name: ".symtab", Type: SHTProgbits})
	if _, err := b2.Bytes(); err == nil {
		t.Error("managed-name collision not rejected")
	}
}

func TestDeterministicOutput(t *testing.T) {
	img1 := buildSample(t)
	img2 := buildSample(t)
	if !bytes.Equal(img1, img2) {
		t.Error("builder output not deterministic")
	}
}

func TestManyRandomImagesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		b := NewBuilder(ETExec, EMX8664)
		text := make([]byte, 1+rng.Intn(4096))
		rng.Read(text)
		b.SetText(text)
		nlibs := rng.Intn(6)
		var libs []string
		for j := 0; j < nlibs; j++ {
			libs = append(libs, randName(rng)+".so")
			b.AddNeeded(libs[j])
		}
		nsyms := rng.Intn(20)
		var globals []string
		for j := 0; j < nsyms; j++ {
			name := randName(rng)
			if rng.Intn(3) == 0 {
				b.AddLocalFunc(name, uint64(j), 4)
			} else {
				globals = append(globals, name)
				b.AddGlobalFunc(name, uint64(j), 4)
			}
		}
		img, err := b.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		f, err := Parse(img)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if nlibs > 0 && !reflect.DeepEqual(f.Needed(), libs) {
			t.Fatalf("iteration %d: needed %q != %q", i, f.Needed(), libs)
		}
		got, err := f.GlobalSymbolNames()
		if err != nil {
			t.Fatal(err)
		}
		if len(globals) == 0 {
			if len(got) != 0 {
				t.Fatalf("iteration %d: unexpected globals %q", i, got)
			}
		} else if !reflect.DeepEqual(got, globals) {
			t.Fatalf("iteration %d: globals %q != %q", i, got, globals)
		}
		if !bytes.Equal(f.Section(".text").Data, text) {
			t.Fatalf("iteration %d: text corrupted", i)
		}
	}
}

func randName(rng *rand.Rand) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz_"
	n := 3 + rng.Intn(12)
	out := make([]byte, n)
	for i := range out {
		out[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(out)
}

func BenchmarkBuild(b *testing.B) {
	text := bytes.Repeat([]byte{0x90}, 64<<10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(ETDyn, EMX8664)
		bld.SetText(text)
		bld.SetComment("GCC: (SUSE Linux) 13.3.0")
		bld.AddNeeded("libm.so.6")
		bld.AddGlobalFunc("main", 0x401000, 64)
		if _, err := bld.Bytes(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	bld := NewBuilder(ETDyn, EMX8664)
	bld.SetText(bytes.Repeat([]byte{0x90}, 256<<10))
	bld.SetComment("GCC: (SUSE Linux) 13.3.0")
	for i := 0; i < 40; i++ {
		bld.AddGlobalFunc(randName(rand.New(rand.NewSource(int64(i)))), uint64(i), 16)
	}
	img, err := bld.Bytes()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Parse(img)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.GlobalSymbolNames(); err != nil {
			b.Fatal(err)
		}
	}
}
