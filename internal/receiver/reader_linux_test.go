package receiver

import (
	"testing"
	"unsafe"
)

// TestMmsghdrLayout pins the struct mmsghdr mirror to the kernel's layout:
// a msghdr followed by the unsigned int msg_len, padded to the word — 64
// bytes on 64-bit targets, 32 on 32-bit ones. A wrong size makes recvmmsg
// read headers out of step and write byte counts into the wrong slots.
func TestMmsghdrLayout(t *testing.T) {
	var h mmsghdr
	size, lenAt := uintptr(64), uintptr(56)
	if unsafe.Sizeof(uintptr(0)) == 4 {
		size, lenAt = 32, 28
	}
	if got := unsafe.Sizeof(h); got != size {
		t.Errorf("sizeof(mmsghdr) = %d, want %d", got, size)
	}
	if got := unsafe.Offsetof(h.len); got != lenAt {
		t.Errorf("offsetof(msg_len) = %d, want %d", got, lenAt)
	}
}
