package strescan

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestExtractBasics(t *testing.T) {
	data := []byte("\x00\x01hello\x02world!\x7f\xffhpc\x00libm.so.6\x00")
	got := Extract(data)
	want := []string{"hello", "world!", "libm.so.6"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Extract = %q, want %q", got, want)
	}
}

func TestExtractMinLength(t *testing.T) {
	data := []byte("ab\x00abc\x00abcd\x00abcde\x00")
	got := ExtractWith(data, Options{MinLength: 4})
	want := []string{"abcd", "abcde"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("minlen 4: %q, want %q", got, want)
	}
	got = ExtractWith(data, Options{MinLength: 3})
	want = []string{"abc", "abcd", "abcde"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("minlen 3: %q, want %q", got, want)
	}
}

func TestExtractTrailingRun(t *testing.T) {
	got := Extract([]byte("\x00tail-string"))
	if !reflect.DeepEqual(got, []string{"tail-string"}) {
		t.Errorf("trailing run missed: %q", got)
	}
}

func TestExtractEmptyAndAllBinary(t *testing.T) {
	if got := Extract(nil); got != nil {
		t.Errorf("Extract(nil) = %q, want nil", got)
	}
	if got := Extract([]byte{0, 1, 2, 3, 255}); got != nil {
		t.Errorf("Extract(binary) = %q, want nil", got)
	}
}

func TestTabHandling(t *testing.T) {
	data := []byte("col1\tcol2\x00")
	with := ExtractWith(data, Options{IncludeTab: true})
	if !reflect.DeepEqual(with, []string{"col1\tcol2"}) {
		t.Errorf("with tab: %q", with)
	}
	without := ExtractWith(data, Options{IncludeTab: false})
	if !reflect.DeepEqual(without, []string{"col1", "col2"}) {
		t.Errorf("without tab: %q", without)
	}
}

func TestMaxStrings(t *testing.T) {
	data := []byte("aaaa\x00bbbb\x00cccc\x00dddd\x00")
	got := ExtractWith(data, Options{MaxStrings: 2})
	if len(got) != 2 {
		t.Errorf("MaxStrings ignored: %q", got)
	}
}

func TestDump(t *testing.T) {
	data := []byte("one\x00two!\x00\x01\x02three")
	want := "two!\nthree\n" // "one" is only 3 chars
	if got := string(Dump(data)); got != want {
		t.Errorf("Dump = %q, want %q", got, want)
	}
}

func TestScanReader(t *testing.T) {
	got, err := Scan(bytes.NewReader([]byte("xyzzy\x00plugh")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"xyzzy", "plugh"}) {
		t.Errorf("Scan = %q", got)
	}
}

func TestCountAgreesWithExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint16) bool {
		data := make([]byte, int(n)%4096)
		rng.Read(data)
		opts := DefaultOptions()
		return Count(data, opts) == len(ExtractWith(data, opts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractAllRunsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	opts := DefaultOptions()
	for i := 0; i < 100; i++ {
		data := make([]byte, 2048)
		rng.Read(data)
		for _, s := range ExtractWith(data, opts) {
			if len(s) < opts.minLen() {
				t.Fatalf("string %q shorter than min length", s)
			}
			for j := 0; j < len(s); j++ {
				if c := s[j]; (c < 0x20 || c > 0x7E) && c != '\t' {
					t.Fatalf("string %q contains unprintable byte %#x", s, s[j])
				}
			}
		}
	}
}

func BenchmarkExtract1M(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 1<<20)
	rng.Read(data)
	// Seed some realistic strings.
	for i := 0; i < 1000; i++ {
		copy(data[rng.Intn(len(data)-32):], "GCC: (SUSE Linux) 13.3.0\x00")
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(data)
	}
}
