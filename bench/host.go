package main

// Host calibration: what this box does with no program code involved — a
// memory copy, a one-byte ping-pong and a bulk stream over a raw 127.0.0.1
// socket inside this process. The traced run measures them between
// segments and reports the medians. They are never used to normalise
// another metric; a run whose host.* differs from its pair's is a host
// event.

import (
	"io"
	"net"
	"time"
)

const (
	hostCopyBytes   = 8 << 20
	hostStreamBytes = 32 << 20
	hostPings       = 100
)

type hostProbe struct {
	src, dst      []byte
	ln            net.Listener
	ping, bulk    net.Conn
	memcpy, bw    []float64 // GB/s per round
	rtt           []float64 // µs per round (median of the round's pings)
	broken        bool
	serverStopped chan struct{}
}

// newHostProbe opens the loopback sockets. A nil probe (the untraced run)
// measures nothing.
func newHostProbe() *hostProbe {
	h := &hostProbe{}
	var err error
	if h.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		h.broken = true
		return h
	}
	h.serverStopped = make(chan struct{})
	go h.serve()
	if h.ping, err = net.Dial("tcp", h.ln.Addr().String()); err == nil {
		h.bulk, err = net.Dial("tcp", h.ln.Addr().String())
	}
	if err != nil {
		h.close()
		h.broken = true
		return h
	}
	h.src, h.dst = make([]byte, hostCopyBytes), make([]byte, hostCopyBytes)
	return h
}

// serve accepts the two connections: the first echoes single bytes, the
// second swallows hostStreamBytes at a time and acknowledges each with one
// byte.
func (h *hostProbe) serve() {
	defer close(h.serverStopped)
	echo, err := h.ln.Accept()
	if err != nil {
		return
	}
	defer echo.Close()
	sink, err := h.ln.Accept()
	if err != nil {
		return
	}
	sunk := make(chan struct{})
	defer func() {
		sink.Close()
		<-sunk
	}()
	go func() {
		defer close(sunk)
		buf := make([]byte, 256<<10)
		for {
			if _, err := io.CopyBuffer(io.Discard, io.LimitReader(sink, hostStreamBytes), buf); err != nil {
				return
			}
			if _, err := sink.Write([]byte{1}); err != nil {
				return
			}
		}
	}()
	b := make([]byte, 1)
	for {
		if _, err := io.ReadFull(echo, b); err != nil {
			return
		}
		if _, err := echo.Write(b); err != nil {
			return
		}
	}
}

// between runs one round of the three probes.
func (h *hostProbe) between() {
	if h == nil || h.broken {
		return
	}
	t0 := time.Now()
	for i := 0; i < 8; i++ {
		copy(h.dst, h.src)
	}
	h.memcpy = append(h.memcpy, 8*hostCopyBytes/time.Since(t0).Seconds()/1e9)

	b := make([]byte, 1)
	pings := make([]float64, 0, hostPings)
	for i := 0; i < hostPings; i++ {
		t0 := time.Now()
		if _, err := h.ping.Write(b); err != nil {
			h.broken = true
			return
		}
		if _, err := io.ReadFull(h.ping, b); err != nil {
			h.broken = true
			return
		}
		pings = append(pings, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	h.rtt = append(h.rtt, median(pings))

	chunk := h.src[:256<<10]
	t0 = time.Now()
	for sent := 0; sent < hostStreamBytes; sent += len(chunk) {
		if _, err := h.bulk.Write(chunk); err != nil {
			h.broken = true
			return
		}
	}
	if _, err := io.ReadFull(h.bulk, b); err != nil {
		h.broken = true
		return
	}
	h.bw = append(h.bw, hostStreamBytes/time.Since(t0).Seconds()/1e9)
}

// report writes the medians.
func (h *hostProbe) report(m map[string]float64) {
	m["host.memcpy_gbps"] = median(h.memcpy)
	m["host.loopback_rtt_us"] = median(h.rtt)
	m["host.loopback_gbps"] = median(h.bw)
}

func (h *hostProbe) close() {
	if h.ping != nil {
		h.ping.Close()
	}
	if h.bulk != nil {
		h.bulk.Close()
	}
	if h.ln != nil {
		h.ln.Close()
	}
	if h.serverStopped != nil {
		<-h.serverStopped
	}
	h.src, h.dst = nil, nil
}
