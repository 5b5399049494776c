package collector

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"siren/internal/elfx"
	"siren/internal/ssdeep"
	"siren/internal/strescan"
)

var usrBinAll = flag.Bool("usrbin.all", false, "scan every ELF file in /usr/bin, not the first 32 of at most 4 MB")

var sinkReport *BinaryReport

// BenchmarkScanBinaryUsrBin is the collection budget of a user executable
// on the host's own binaries: ScanBinary over the ELF files of /usr/bin in
// name order (the first 32 of at most 4 MB, every one with -usrbin.all),
// whole and layer by layer. It skips when /usr/bin holds none.
func BenchmarkScanBinaryUsrBin(b *testing.B) {
	entries, err := os.ReadDir("/usr/bin")
	if err != nil {
		b.Skipf("no /usr/bin: %v", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	var paths []string
	var imgs [][]byte
	var files []*elfx.File
	size := 0
	for _, e := range entries {
		if !*usrBinAll && len(imgs) == 32 {
			break
		}
		path := filepath.Join("/usr/bin", e.Name())
		fi, err := os.Stat(path)
		if err != nil || !fi.Mode().IsRegular() || (!*usrBinAll && fi.Size() > 4<<20) {
			continue
		}
		img, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		f, err := elfx.Parse(img)
		if err != nil {
			continue
		}
		if _, err := ScanBinary(img); err != nil {
			continue
		}
		paths, imgs, files = append(paths, path), append(imgs, img), append(files, f)
		size += len(img)
	}
	if len(imgs) == 0 {
		b.Skip("no ELF files elfx parses in /usr/bin")
	}
	layer := func(name string, each func(i int)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportMetric(float64(len(imgs)), "files")
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for i := range imgs {
					each(i)
				}
			}
		})
	}
	layer("read", func(i int) { _, _ = os.ReadFile(paths[i]) })
	layer("parse", func(i int) { _, _ = elfx.Parse(imgs[i]) })
	layer("file_h", func(i int) { _, _ = ssdeep.Hash(imgs[i]) })
	layer("strings_h", func(i int) {
		var h ssdeep.Hasher
		for s := range strescan.Strings(imgs[i], strescan.DefaultOptions()) {
			h.Write(s)
			h.WriteByte('\n')
		}
		_, _ = h.Digest()
	})
	layer("symbols_h", func(i int) {
		names, _ := files[i].GlobalSymbolNames()
		var h ssdeep.Hasher
		for _, name := range names {
			h.WriteString(name)
			h.WriteByte('\n')
		}
		_, _ = h.Digest()
	})
	layer("scan", func(i int) { sinkReport, _ = ScanBinary(imgs[i]) })
}
