//go:build !linux

package comm

import "net"

// tryWriter is the inline write on a platform without one: it takes
// nothing, so every frame queues for the peer's writer goroutine.
type tryWriter struct{}

func (t *tryWriter) init(net.Conn) {}

func (t *tryWriter) write(hdr, body []byte) (n int, failed bool) { return 0, false }
