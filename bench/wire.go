package main

import (
	"net"
	"sync"
	"sync/atomic"
)

// forwarders are the byte-counting loopback proxies of the traced
// remote-2srv run: the coordinator dials a forwarder in place of each shard
// server, and every byte either way is counted. A nil *forwarders forwards
// nothing, which is every other run.
type forwarders struct {
	bytes atomic.Int64

	mu        sync.Mutex
	listeners []net.Listener
	conns     []net.Conn
	wg        sync.WaitGroup
}

// via returns the address mapping setup dials through, or nil.
func (f *forwarders) via() func(addr string) (string, error) {
	if f == nil {
		return nil
	}
	return f.listen
}

// count returns the bytes forwarded so far.
func (f *forwarders) count() int64 {
	if f == nil {
		return 0
	}
	return f.bytes.Load()
}

// listen starts a forwarder in front of target and returns its address.
func (f *forwarders) listen(target string) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.mu.Lock()
	f.listeners = append(f.listeners, lis)
	f.mu.Unlock()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			in, err := lis.Accept()
			if err != nil {
				return // closed
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			f.mu.Lock()
			f.conns = append(f.conns, in, out)
			f.mu.Unlock()
			f.wg.Add(2)
			go f.pipe(in, out)
			go f.pipe(out, in)
		}
	}()
	return lis.Addr().String(), nil
}

// pipe copies src to dst until either side closes, counting the bytes.
func (f *forwarders) pipe(dst, src net.Conn) {
	defer f.wg.Done()
	defer dst.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			f.bytes.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// close stops every forwarder and waits for its goroutines.
func (f *forwarders) close() {
	if f == nil {
		return
	}
	f.mu.Lock()
	for _, l := range f.listeners {
		l.Close()
	}
	for _, c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}
