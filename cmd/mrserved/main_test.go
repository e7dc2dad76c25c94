package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestServeBindErrorNamesAddress occupies a port and then asks serve to
// bind it again: the error must name the chosen address so a failed
// daemon start is diagnosable from the one line it prints.
func TestServeBindErrorNamesAddress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	o := options{addr: ln.Addr().String(), timeout: time.Second}
	srv, httpSrv, _ := buildServers(o)
	err = serve(context.Background(), srv, httpSrv, o, nil)
	if err == nil {
		t.Fatal("double bind succeeded")
	}
	if !strings.Contains(err.Error(), o.addr) {
		t.Fatalf("bind error %q does not name the address %q", err, o.addr)
	}
}

// TestGracefulDrainOnSIGTERM exercises the real shutdown path end to end:
// a parked in-flight request survives a SIGTERM, /healthz flips to
// draining, new API requests are refused, and the daemon exits cleanly
// once the in-flight request completes.
func TestGracefulDrainOnSIGTERM(t *testing.T) {
	o := options{
		addr:     "127.0.0.1:0",
		cache:    -1, // every advise request reaches the (parked) evaluator
		timeout:  10 * time.Second,
		announce: 2 * time.Second,
		drain:    10 * time.Second,
	}
	srv, httpSrv, _ := buildServers(o)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	srv.AdviseHook = func() {
		once.Do(func() { close(started) })
		<-release
	}

	// The test registers the signal handler itself so the SIGTERM below is
	// guaranteed to be intercepted, exactly as main() does.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv, httpSrv, o, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never came up")
	}
	base := "http://" + addr

	// Park one advise request inside its evaluation.
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/advise", "application/json",
			strings.NewReader(`{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`))
		if err != nil {
			inflight <- -1
			return
		}
		defer resp.Body.Close()
		_, _ = io.ReadAll(resp.Body)
		inflight <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never reached the evaluator")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Within the announce window the listener is still open: /healthz
	// must report draining with 503.
	var status string
	var hcode int
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		var h struct{ Status string }
		_ = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		status, hcode = h.Status, resp.StatusCode
		if status == "draining" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status != "draining" || hcode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after SIGTERM = %d %q, want 503 draining", hcode, status)
	}

	// New API work is refused while draining.
	resp, err := http.Post(base+"/v1/map", "application/json",
		strings.NewReader(`{"hierarchy":"2,2,4","rank":5}`))
	if err != nil {
		t.Fatalf("draining server dropped the connection: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: status %d, want 503", resp.StatusCode)
	}

	// The parked request completes once released, and the daemon exits 0.
	close(release)
	select {
	case code := <-inflight:
		if code != http.StatusOK {
			t.Fatalf("in-flight request finished with %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server never shut down")
	}
}
