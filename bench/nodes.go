package main

// The codsnode child processes of a TCP workload: spawn, handshake, process
// accounting from /proc, and reaping. Every child this program starts runs
// in its own process group, carries a parent-death signal and sits in a
// process-wide registry, so the signal handler, the watchdog and the failure
// paths of main can kill it — a leaked codsnode would silently tax every
// later run's cpu_ms_per_step.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	cods "github.com/insitu/cods"
	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

// nodeCluster is a driver framework connected to one codsnode child per
// node over loopback TCP.
type nodeCluster struct {
	fw       *cods.Framework
	be       *tcpnet.Backend
	children []*exec.Cmd
}

var (
	liveMu    sync.Mutex
	liveProcs = map[*exec.Cmd]bool{}
)

// startTracked starts cmd in its own process group, with a parent-death
// signal, and registers it for killTracked.
func startTracked(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	liveMu.Lock()
	defer liveMu.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	liveProcs[cmd] = true
	return nil
}

// waitTracked reaps cmd and drops it from the registry.
func waitTracked(cmd *exec.Cmd) error {
	err := cmd.Wait()
	liveMu.Lock()
	delete(liveProcs, cmd)
	liveMu.Unlock()
	return err
}

// killTracked hard-kills the process group of every live child. It is safe
// to call from the signal handler or the watchdog while the main goroutine
// is mid-step; the exit that follows needs no reaping.
func killTracked() {
	liveMu.Lock()
	defer liveMu.Unlock()
	for c := range liveProcs {
		_ = syscall.Kill(-c.Process.Pid, syscall.SIGKILL)
	}
}

// startNodes launches nodes codsnode children for a nodes × cores machine
// over domain, connects a driver framework to them and distributes the
// peer table. No simulated latency, no observability, program defaults
// everywhere.
func startNodes(bin string, nodes, cores int, domain []int) (*nodeCluster, error) {
	fw, err := cods.New(cods.Config{Nodes: nodes, CoresPerNode: cores, Domain: domain})
	if err != nil {
		return nil, err
	}
	dims := make([]string, len(domain))
	for i, d := range domain {
		dims[i] = strconv.Itoa(d)
	}
	nc := &nodeCluster{fw: fw}
	peers := make(map[cluster.NodeID]string, nodes)
	for node := 0; node < nodes; node++ {
		cmd := exec.Command(bin,
			"-node", strconv.Itoa(node),
			"-nodes", strconv.Itoa(nodes),
			"-cores", strconv.Itoa(cores),
			"-domain", strings.Join(dims, "x"))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			nc.kill()
			return nil, err
		}
		if err := startTracked(cmd); err != nil {
			nc.kill()
			return nil, fmt.Errorf("starting codsnode %d: %w", node, err)
		}
		nc.children = append(nc.children, cmd)
		addr, err := scrapeListen(stdout)
		if err != nil {
			nc.kill()
			return nil, fmt.Errorf("codsnode %d: %w", node, err)
		}
		go io.Copy(io.Discard, stdout)
		peers[cluster.NodeID(node)] = addr
	}
	be, err := tcpnet.Connect(fw.TransportFabric(), peers, tcpnet.Config{})
	if err != nil {
		nc.kill()
		return nil, err
	}
	nc.be = be
	if err := be.PushPeers(); err != nil {
		nc.kill()
		return nil, fmt.Errorf("distributing peer addresses: %w", err)
	}
	fw.TransportFabric().SetBackend(be)
	return nc, nil
}

// scrapeListen reads a child's stdout up to its listen announcement.
func scrapeListen(r io.Reader) (string, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "CODSNODE LISTEN "); ok {
			return strings.TrimSpace(addr), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("exited before announcing a listen address")
}

// stop asks the children to exit, waits for them and kills stragglers.
func (nc *nodeCluster) stop() {
	if nc.be != nil {
		nc.fw.TransportFabric().SetBackend(nil)
		nc.be.ShutdownPeers()
		nc.be.Close()
	}
	nc.reap(2 * time.Second)
}

// kill hard-kills and reaps the children (failure paths).
func (nc *nodeCluster) kill() {
	if nc.be != nil {
		nc.be.Close()
	}
	nc.reap(0)
}

// reap waits up to grace for each child to exit on its own, then kills its
// process group, and always waits for the exit status so no zombie stays.
func (nc *nodeCluster) reap(grace time.Duration) {
	children := nc.children
	nc.children = nil
	for _, c := range children {
		done := make(chan struct{})
		go func() {
			_ = waitTracked(c) // the exit status of a killed child is not an error here
			close(done)
		}()
		select {
		case <-done:
			continue
		case <-time.After(grace):
		}
		_ = syscall.Kill(-c.Process.Pid, syscall.SIGKILL)
		<-done
	}
}

// pids returns the children's process ids.
func (nc *nodeCluster) pids() []int {
	var out []int
	for _, c := range nc.children {
		out = append(out, c.Process.Pid)
	}
	return out
}

// accounts pulls every child's accounting through the program's own stats
// op. MergeRemoteStats also folds the snapshots into the driver's metrics;
// the bench reads only the per-peer snapshots and drops the merged copy, so
// repeated calls do not double count. Call it outside timed intervals only:
// the children copy their whole flow log to answer.
func (nc *nodeCluster) accounts() ([]tcpnet.NodeAccount, error) {
	if err := nc.be.MergeRemoteStats(); err != nil {
		return nil, err
	}
	nc.fw.ResetTraffic()
	return nc.be.NodeAccounts(), nil
}

// procCPU returns user+system CPU seconds consumed so far by pid, from
// /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after the
	// closing parenthesis. utime and stime are fields 14 and 15.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable cpu times in /proc/%d/stat", pid)
	}
	const clockTick = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return (ut + st) / clockTick, nil
}

// procPeakRSS returns the peak resident set size of pid in MB (VmHWM).
func procPeakRSS(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// openSockets counts this process's open socket descriptors.
func openSockets() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, e := range ents {
		if l, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(l, "socket:") {
			n++
		}
	}
	return n
}
