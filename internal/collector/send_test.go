package collector

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"siren/internal/procfs"
	"siren/internal/pyenv"
	"siren/internal/slurm"
	"siren/internal/ssdeep"
	"siren/internal/strescan"
	"siren/internal/toolchain"
	"siren/internal/wire"
)

// retainingTransport keeps every datagram it is sent, as wire.Transport
// allows, together with a copy of its bytes at the time of the Send.
type retainingTransport struct {
	mu    sync.Mutex
	kept  [][]byte
	sent  [][]byte
	calls int
}

func (t *retainingTransport) Send(d []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.kept = append(t.kept, d)
	t.sent = append(t.sent, bytes.Clone(d))
	return nil
}

func (t *retainingTransport) Close() error { return nil }

// TestSentDatagramsAreNeverReused holds the collector to the Transport
// contract: a transport keeps what it is sent, so no datagram the collector
// hands over may later change, and no two may share memory. A send path
// that encoded into one reused buffer would fail both checks.
func TestSentDatagramsAreNeverReused(t *testing.T) {
	w := newWorld(t)
	tr := &retainingTransport{}
	w.col = New(tr)
	w.col.SetMaxDatagram(300) // several chunks per record, too
	w.rt.Hook = w.col
	it := pyenv.Interpreter{Version: "3.10", Path: "/usr/bin/python3.10", LibDir: "/usr/lib64/python3.10"}
	runs := []struct {
		exe   string
		opts  slurm.ExecOptions
		setup func(*procfs.Proc) error
	}{
		{exe: "/usr/bin/cat", opts: slurm.ExecOptions{PPID: 1, Env: env(nil)}},
		{exe: "/users/user_3/sim/bin/solver", opts: slurm.ExecOptions{PPID: 1, Env: env(nil)}},
		{exe: "/usr/bin/python3.10",
			opts: slurm.ExecOptions{PPID: 1, Env: env(nil), ExtraMaps: pyenv.MapRegions(it, []string{"numpy"}, 0x7f2000000000)},
			setup: func(p *procfs.Proc) error {
				p.Cmdline = []string{"/usr/bin/python3.10", "/scratch/u3/analysis.py"}
				return nil
			}},
	}
	for _, r := range runs {
		if _, err := w.rt.Run(r.exe, r.opts, r.setup); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.kept) < 20 {
		t.Fatalf("only %d datagrams sent", len(tr.kept))
	}
	type span struct{ lo, hi uintptr }
	spans := make([]span, len(tr.kept))
	for i, d := range tr.kept {
		if !bytes.Equal(d, tr.sent[i]) {
			t.Fatalf("datagram %d changed after Send:\n now %q\nsent %q", i, d, tr.sent[i])
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(d)))
		spans[i] = span{lo, lo + uintptr(cap(d))}
		if _, err := wire.Parse(d); err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("datagrams %d and %d share memory", i, j)
			}
		}
	}
}

// TestScanBinaryStreamsTheDumps holds ScanBinary's streamed digests to the
// dumps they stand for: STRINGS_H is the hash of strescan.Dump and
// SYMBOLS_H that of the global symbol names one per line.
func TestScanBinaryStreamsTheDumps(t *testing.T) {
	art, err := toolchain.Compile(
		toolchain.Source{Name: "tool", Version: "2.0", Functions: []string{"tool_run", "tool_init", "tool_fini"},
			Strings: []string{"tool says hello", "usage: tool [-v]"}},
		toolchain.BuildOptions{Compilers: []toolchain.Compiler{toolchain.GCCSUSE}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ScanBinary(art.Binary)
	if err != nil {
		t.Fatal(err)
	}
	want := func(data []byte) string {
		h, err := ssdeep.Hash(data)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if w := want(art.Binary); rep.FileH != w {
		t.Errorf("FileH = %s, want %s", rep.FileH, w)
	}
	if w := want(strescan.Dump(art.Binary)); rep.StringsH != w {
		t.Errorf("StringsH = %s, want %s", rep.StringsH, w)
	}
	var dump strings.Builder
	for _, name := range rep.Symbols {
		dump.WriteString(name + "\n")
	}
	if len(rep.Symbols) < 3 {
		t.Fatalf("symbols = %q", rep.Symbols)
	}
	if w := want([]byte(dump.String())); rep.SymbolsH != w {
		t.Errorf("SymbolsH = %s, want %s", rep.SymbolsH, w)
	}
}
