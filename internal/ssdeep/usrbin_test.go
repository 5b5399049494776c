package ssdeep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var usrBinAll = flag.Bool("usrbin.all", false, "hash every regular file in /usr/bin, not the first 32 files or 64 MB")

// usrBinFiles reads real executables from /usr/bin in name order: the first
// 32 regular files of at most 4 MB, or 64 MB, whichever ends first
// (everything with -usrbin.all). It skips the test when /usr/bin is absent.
func usrBinFiles(tb testing.TB) (names []string, files [][]byte) {
	tb.Helper()
	entries, err := os.ReadDir("/usr/bin")
	if err != nil {
		tb.Skipf("no /usr/bin: %v", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	total := 0
	for _, e := range entries {
		if !*usrBinAll && (len(files) == 32 || total >= 64<<20) {
			break
		}
		path := filepath.Join("/usr/bin", e.Name())
		fi, err := os.Stat(path)
		if err != nil || !fi.Mode().IsRegular() || fi.Size() == 0 || (!*usrBinAll && fi.Size() > 4<<20) {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		names, files = append(names, e.Name()), append(files, data)
		total += len(data)
	}
	if len(files) == 0 {
		tb.Skip("no readable regular files in /usr/bin")
	}
	return names, files
}

// TestHashUsrBin holds the one-pass Hasher to the retry oracle on real
// executables, whole and streamed through HashReader.
func TestHashUsrBin(t *testing.T) {
	names, files := usrBinFiles(t)
	passes := 0
	for i, data := range files {
		want := hashRetry(data)
		got, err := HashDigest(data)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: one pass %v, oracle %v", names[i], got, want)
		}
		streamed, err := HashReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if streamed != want.String() {
			t.Errorf("%s: HashReader %s, oracle %v", names[i], streamed, want)
		}
		passes += 1 + retries(data)
	}
	t.Logf("%d files, %.2f oracle passes per file", len(files), float64(passes)/float64(len(files)))
}

// BenchmarkHashUsrBin hashes the files TestHashUsrBin reads, with the retry
// oracle and with the one-pass kernel, and reports the oracle's passes per
// file.
func BenchmarkHashUsrBin(b *testing.B) {
	_, files := usrBinFiles(b)
	size, passes := 0, 0
	for _, data := range files {
		size += len(data)
		passes += 1 + retries(data)
	}
	run := func(hash func([]byte)) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportMetric(float64(len(files)), "files")
			b.ReportMetric(float64(passes)/float64(len(files)), "retry-passes/file")
			for i := 0; i < b.N; i++ {
				for _, data := range files {
					hash(data)
				}
			}
		}
	}
	b.Run("retry", run(func(data []byte) { hashRetry(data) }))
	b.Run("onepass", run(func(data []byte) { HashDigest(data) }))
}
