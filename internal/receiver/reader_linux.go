package receiver

import (
	"fmt"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr: one msghdr (the per-arch
// syscall.Msghdr) plus the byte count the call received into it — 64
// bytes on 64-bit targets, 32 on 386.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// sysReader is the recvmmsg state: slot i of arena is iovs[i], described by
// hdrs[i]. recv is the RawConn.Read callback, bound once so a read does not
// allocate a closure; it leaves its result in n and errno.
type sysReader struct {
	rc    syscall.RawConn
	arena []byte
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	recv  func(fd uintptr) bool
	n     int
	errno syscall.Errno
}

func newBatchReader(conn net.PacketConn) (*batchReader, error) {
	// An anonymous mapping, not a Go allocation: the arena's 4 MiB stay out
	// of the heap the GC paces against, and only the pages datagrams
	// actually touch become resident.
	arena, err := syscall.Mmap(-1, 0, burstMax*slotSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, os.NewSyscallError("mmap", err)
	}
	b := &batchReader{msgs: make([][]byte, 0, burstMax)}
	b.arena = arena
	sc, ok := conn.(syscall.Conn)
	if !ok {
		b.close()
		return nil, fmt.Errorf("receiver: %T exposes no socket to read in bursts", conn)
	}
	if b.rc, err = sc.SyscallConn(); err != nil {
		b.close()
		return nil, err
	}
	b.hdrs = make([]mmsghdr, burstMax)
	b.iovs = make([]syscall.Iovec, burstMax)
	for i := range b.hdrs {
		b.iovs[i].Base = &arena[i*slotSize]
		b.iovs[i].SetLen(slotSize)
		b.hdrs[i].hdr.Iov = &b.iovs[i]
		b.hdrs[i].hdr.Iovlen = 1
	}
	b.recv = b.recvmmsg
	return b, nil
}

// read receives the datagrams the socket holds, up to burstMax, in one
// recvmmsg. MSG_DONTWAIT makes the call return whatever is queued at once;
// when nothing is, RawConn.Read parks the goroutine on the netpoller until
// the socket turns readable (or its read deadline passes), so a lone
// datagram costs one call and nothing waits for a batch to fill.
func (b *batchReader) read() error {
	b.msgs = b.msgs[:0]
	if err := b.rc.Read(b.recv); err != nil {
		return err
	}
	if b.errno != 0 {
		return os.NewSyscallError("recvmmsg", b.errno)
	}
	for i := 0; i < b.n; i++ {
		off := i * slotSize
		b.msgs = append(b.msgs, b.arena[off:off+int(b.hdrs[i].len)])
	}
	return nil
}

func (b *batchReader) recvmmsg(fd uintptr) bool {
	for {
		r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&b.hdrs[0])), uintptr(len(b.hdrs)), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		b.n, b.errno = int(r), e
		return true
	}
}

// close unmaps the arena; the reader must not be used afterwards.
func (b *batchReader) close() {
	_ = syscall.Munmap(b.arena)
	b.arena = nil
}
