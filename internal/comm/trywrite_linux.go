//go:build linux

package comm

import (
	"net"
	"syscall"
	"unsafe"
)

// tryWriter writes a frame straight into a peer's socket without ever
// waiting: one writev(2) of the header and the payload, issued through the
// connection's RawConn with a callback that always reports done, so a full
// socket buffer (EAGAIN) is 0 bytes written, never a park on the poller. The
// callback and its iovec are bound once per peer, so a write allocates
// nothing.
type tryWriter struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) bool // t.writev, bound once
	iov [2]syscall.Iovec
	cnt int
	n   int
	err syscall.Errno
}

// init binds t to conn; a connection with no file descriptor (net.Pipe in
// tests) leaves t taking nothing.
func (t *tryWriter) init(conn net.Conn) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return
	}
	t.rc, t.fn = rc, t.writev
}

func (t *tryWriter) writev(fd uintptr) bool {
	r, _, e := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&t.iov[0])), uintptr(t.cnt))
	t.n, t.err = int(r), e
	return true
}

// write sends what the kernel takes at once of hdr followed by body and
// returns its length: 0 when the socket buffer is full. failed reports a
// connection that refuses writes altogether (closed, reset).
func (t *tryWriter) write(hdr, body []byte) (n int, failed bool) {
	if t.rc == nil {
		return 0, false
	}
	t.cnt = 0
	for _, b := range [2][]byte{hdr, body} {
		if len(b) > 0 {
			t.iov[t.cnt].Base = &b[0]
			t.iov[t.cnt].SetLen(len(b))
			t.cnt++
		}
	}
	if t.cnt == 0 {
		return 0, false
	}
	err := t.rc.Write(t.fn)
	t.iov = [2]syscall.Iovec{} // hold no payload past the call
	switch {
	case err != nil:
		return 0, true
	case t.err == 0:
		return t.n, false
	case t.err == syscall.EAGAIN || t.err == syscall.EINTR:
		return 0, false
	}
	return 0, true
}
