// Package serve holds the three serving workloads. It drives the real
// mrgate and mrserved binaries through their command-line flags and HTTP
// JSON only and imports no package of the program, so a refactor behind
// those two surfaces cannot break these workloads.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Replicas is the fleet size behind the gate.
const Replicas = 2

// Fleet is one booted mrgate with its mrserved replicas, all with default
// flags apart from the listen addresses and replica names.
type Fleet struct {
	GateURL     string
	ReplicaURLs []string

	procs []*proc
	mu    sync.Mutex
	dead  error // first child that exited before Stop
	stop  bool
}

type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed when the child has been reaped
}

// freeAddrs reserves n loopback ports by binding port 0, then releases
// them for the children to bind.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("serve: reserving a port: %w", err)
		}
		held = append(held, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// StartFleet boots the replicas and the gate from the binaries in binDir,
// with their logs in logDir, and returns once both replicas report healthy
// and a request routed through the gate has been answered by a replica.
func StartFleet(binDir, logDir, tag string) (*Fleet, error) {
	addrs, err := freeAddrs(Replicas + 1)
	if err != nil {
		return nil, err
	}
	f := &Fleet{GateURL: "http://" + addrs[0]}
	for i := 0; i < Replicas; i++ {
		f.ReplicaURLs = append(f.ReplicaURLs, "http://"+addrs[1+i])
		name := fmt.Sprintf("r%d", i)
		if err := f.spawn(binDir, logDir, tag, name, "mrserved", "-addr", addrs[1+i], "-name", name); err != nil {
			f.Stop()
			return nil, err
		}
	}
	if err := f.spawn(binDir, logDir, tag, "gate", "mrgate", "-addr", addrs[0],
		"-replicas", strings.Join(f.ReplicaURLs, ",")); err != nil {
		f.Stop()
		return nil, err
	}
	if err := f.waitReady(15 * time.Second); err != nil {
		f.Stop()
		return nil, err
	}
	return f, nil
}

func (f *Fleet) spawn(binDir, logDir, tag, name, bin string, args ...string) error {
	logf, err := os.Create(filepath.Join(logDir, tag+"-"+name+".log"))
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process be killed outright, the kernel stops the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("serve: starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	f.procs = append(f.procs, p)
	go func() {
		err := cmd.Wait()
		f.mu.Lock()
		if !f.stop && f.dead == nil {
			f.dead = fmt.Errorf("serve: %s (pid %d) exited during the run: %v", name, cmd.Process.Pid, err)
		}
		f.mu.Unlock()
		close(p.done)
	}()
	return nil
}

// Alive returns an error once any child has exited on its own.
func (f *Fleet) Alive() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// Pids lists the gate's and the replicas' process ids.
func (f *Fleet) Pids() []int {
	var pids []int
	for _, p := range f.procs {
		pids = append(pids, p.cmd.Process.Pid)
	}
	return pids
}

func (f *Fleet) waitReady(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: 2 * time.Second}
	probe := func(what string, try func() error) error {
		for {
			err := try()
			if err == nil {
				return nil
			}
			if dead := f.Alive(); dead != nil {
				return dead
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("serve: %s not ready after %v: %w", what, budget, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, u := range f.ReplicaURLs {
		u := u
		if err := probe("replica "+u, func() error {
			resp, err := client.Get(u + "/healthz")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body) // draining keeps the connection reusable
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("healthz status %d", resp.StatusCode)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return probe("gate "+f.GateURL, func() error {
		resp, err := client.Post(f.GateURL+"/v1/map", "application/json",
			strings.NewReader(`{"hierarchy":"2,2,4","rank":3}`))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body) // a short read shows as a failed check below
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mr-Replica") == "" || isDegraded(body) {
			return fmt.Errorf("routed probe: status %d, replica %q", resp.StatusCode, resp.Header.Get("X-Mr-Replica"))
		}
		return nil
	})
}

// ReplicaStates asks the gate how it classifies each replica for routing
// (GET /v1/fleet): healthy replicas are tried first, degraded ones only
// when none is healthy.
func (f *Fleet) ReplicaStates() ([]string, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(f.GateURL + "/v1/fleet")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var status struct {
		Replicas []struct {
			State string `json:"state"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return nil, fmt.Errorf("serve: %s/v1/fleet: %w", f.GateURL, err)
	}
	if len(status.Replicas) != Replicas {
		return nil, fmt.Errorf("serve: the gate lists %d replicas, want %d", len(status.Replicas), Replicas)
	}
	var states []string
	for _, r := range status.Replicas {
		states = append(states, r.State)
	}
	return states, nil
}

// Stop sends every child SIGTERM, waits for all of them to be reaped, and
// kills those that outlast their drain budget.
func (f *Fleet) Stop() {
	f.mu.Lock()
	f.stop = true
	f.mu.Unlock()
	for _, p := range f.procs {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			_ = p.cmd.Process.Kill() // no other way left to end it
		}
	}
	// Default drain: 500 ms announce window plus up to 5 s for in-flight
	// requests, of which none remain once the clients have returned.
	deadline := time.Now().Add(8 * time.Second)
	for _, p := range f.procs {
		select {
		case <-p.done:
		case <-time.After(time.Until(deadline)):
			_ = p.cmd.Process.Kill() // outlasted its drain budget
			<-p.done
		}
	}
}
