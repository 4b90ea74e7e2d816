package main

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"laminar/internal/difc"
	"laminar/internal/kernel"
)

// TestEchoChannelsKeepTheirOwnBytes: two peers echo through one daemon
// at once, and each gets back only the bytes it sent. Every echo
// goroutine owns its receive buffer. With one buffer shared between
// them, the other channel's Recv can land between a goroutine's Recv and
// its Send, which then echoes the other channel's bytes. The daemon
// task's lock orders every access to the buffer, so the race detector
// stays silent; the byte check is what catches the mix-up.
func TestEchoChannelsKeepTheirOwnBytes(t *testing.T) {
	srv, err := bootNode(10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.nl.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.nl.Close()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(srv, true, 100*time.Microsecond, &stop)
	}()
	defer func() { stop.Store(true); <-done }()

	type peer struct {
		n    *node
		fd   kernel.FD
		mark byte
	}
	var peers []*peer
	for i, mark := range []byte{'a', 'b'} {
		n, err := bootNode(uint64(20+i), true)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.nl.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer n.nl.Close()
		fd, err := n.nl.Open(n.user, srv.nl.Addr(), difc.Labels{})
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, &peer{n: n, fd: fd, mark: mark})
	}

	// Keep both channels loaded so the two echo goroutines overlap: a
	// shared buffer is then overwritten between one goroutine's Recv and
	// its Send. Loss is allowed (the channel is unreliable); foreign bytes
	// are not.
	const want, chunk = 256 << 10, 1 << 10
	got := make([]int, len(peers))
	buf := make([]byte, 64*1024)
	deadline := time.Now().Add(10 * time.Second)
	for got[0] < want || got[1] < want {
		if time.Now().After(deadline) {
			t.Fatalf("echoed %v bytes after 10s, want %d each", got, want)
		}
		for i, p := range peers {
			p.n.k.Send(p.n.user, p.fd, bytes.Repeat([]byte{p.mark}, chunk))
			p.n.nl.Pump()
			nr, rerr := p.n.k.Recv(p.n.user, p.fd, buf)
			if rerr != nil || nr == 0 {
				continue
			}
			if own := bytes.Count(buf[:nr], []byte{p.mark}); own != nr {
				t.Fatalf("peer %c got %d foreign bytes back", p.mark, nr-own)
			}
			got[i] += nr
		}
	}
}
