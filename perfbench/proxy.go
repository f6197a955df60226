package main

import (
	"io"
	"net"
	"sync"
	"time"
)

// delayProxy is a loopback TCP proxy that holds every chunk a client sends
// for a fixed delay before forwarding it. Put in front of the cloud, it
// slows each search request by about that delay without touching program
// code: the benchmark's sensitivity check.
type delayProxy struct {
	ln      net.Listener
	backend string
	delay   time.Duration
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   []net.Conn
}

func startDelayProxy(backend string, delay time.Duration) (*delayProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &delayProxy{ln: ln, backend: backend, delay: delay}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *delayProxy) addr() string { return p.ln.Addr().String() }

func (p *delayProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", p.backend)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, b)
		p.mu.Unlock()
		p.wg.Add(2)
		go func() {
			defer p.wg.Done()
			defer b.Close()
			buf := make([]byte, 64<<10)
			for {
				n, err := c.Read(buf)
				if n > 0 {
					time.Sleep(p.delay)
					if _, werr := b.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()
		go func() {
			defer p.wg.Done()
			defer c.Close()
			_, _ = io.Copy(c, b)
		}()
	}
}

// close stops the proxy and waits for its goroutines to exit.
func (p *delayProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
