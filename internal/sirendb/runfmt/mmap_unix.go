//go:build unix

package runfmt

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
)

// backing abstracts how a run file's bytes are reached: a shared read-only
// mmap on unix (this file), positional reads elsewhere. Slice returns the
// requested byte range; on the mmap backing it aliases the mapping, so the
// bytes must not outlive the backing — which is why the cursor's
// wire.Decoder, whose strings and content are copies, is the only decoder
// allowed to touch them.
type backing interface {
	Slice(off, length int64) ([]byte, error)
	Close() error
}

// openBacking maps the whole file read-only and closes the descriptor — the
// mapping survives the close, so an open Run holds no fd, only address
// space. A finalizer unmaps when the backing becomes garbage: snapshots hand
// out lazily-decoded rows with no Close of their own, so the last reference
// dropping is the natural reclamation point.
func openBacking(path string) (backing, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // open is failing; the stat error wins
		return nil, 0, err
	}
	size := st.Size()
	if size == 0 {
		_ = f.Close() // nothing to map; the corruption error wins
		return nil, 0, fmt.Errorf("%w: %s: empty file", ErrCorrupt, path)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		_ = f.Close() // map failed; the mmap error wins
		return nil, 0, fmt.Errorf("runfmt: mmap %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		_ = syscall.Munmap(data) // unwinding; the close error wins
		return nil, 0, err
	}
	m := &mmapBacking{path: path, data: data}
	runtime.SetFinalizer(m, func(m *mmapBacking) { _ = m.Close() })
	return m, size, nil
}

type mmapBacking struct {
	path string
	once sync.Once
	err  error
	data []byte
}

func (m *mmapBacking) Slice(off, length int64) ([]byte, error) {
	if off < 0 || length < 0 || off+length > int64(len(m.data)) || off+length < off {
		return nil, fmt.Errorf("%w: %s: read [%d,+%d) outside the %d-byte mapping",
			ErrCorrupt, m.path, off, length, len(m.data))
	}
	return m.data[off : off+length], nil
}

// Close unmaps; idempotent so both an explicit Close and the finalizer are
// safe. After Close any retained Slice result is invalid — Run's contract
// is that only owners with no outstanding readers call it.
func (m *mmapBacking) Close() error {
	m.once.Do(func() {
		runtime.SetFinalizer(m, nil)
		m.err = syscall.Munmap(m.data)
		m.data = nil
	})
	return m.err
}
