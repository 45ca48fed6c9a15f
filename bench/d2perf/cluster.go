package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"d2tree/internal/client"
	"d2tree/internal/namespace"
)

// findRoot walks up from the working directory to the d2tree module root,
// so the harness runs the same from the checkout root (bench/run.sh) and
// from its own package directory (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module d2tree\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("d2perf: no d2tree go.mod above the working directory")
		}
		dir = parent
	}
}

// buildDaemons compiles cmd/d2monitor and cmd/d2mds from the checkout into
// binDir. The go command's own cache makes a repeat build cheap.
func buildDaemons(root, binDir string) error {
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", binDir+string(os.PathSeparator),
		"./cmd/d2monitor", "./cmd/d2mds")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build daemons: %w", err)
	}
	return nil
}

// proc is one child daemon in its own process group. Its combined output
// streams through a pipe: the "listening on" line yields the address the
// kernel picked, and everything is kept in a log file for a failed run.
type proc struct {
	name    string
	logPath string
	cmd     *exec.Cmd
	addr    chan string   // receives the listen address once
	logDone chan struct{} // closed when the output pipe hit EOF
	done    chan struct{} // closed when the process has been reaped
}

// startProc runs bin with args, and env added to this process's environment.
func startProc(name, logPath string, env []string, bin string, args ...string) (*proc, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		_ = logFile.Close()
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = pw, pw
	// One P per daemon: the benchmark measures per-op cost, not how far the
	// serving path spreads over cores.
	cmd.Env = append(append(os.Environ(), "GOMAXPROCS=1"), env...)
	// Own process group, so one signal reaches anything the child forks; the
	// kernel kills it if the harness dies without running its clean-up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	_ = pw.Close()
	if err != nil {
		_ = pr.Close()
		_ = logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{
		name:    name,
		logPath: logPath,
		cmd:     cmd,
		addr:    make(chan string, 1),
		logDone: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(p.logDone)
		defer func() { _ = logFile.Close() }()
		defer func() { _ = pr.Close() }()
		sc := bufio.NewScanner(pr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			_, _ = logFile.WriteString(line + "\n") // diagnostics only
			if !found {
				if a, ok := listenAddr(line); ok {
					found = true
					p.addr <- a
				}
			}
		}
	}()
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries nothing
		close(p.done)
	}()
	return p, nil
}

// listenAddr extracts the address from a daemon's "... listening on ADDR ..."
// start-up line.
func listenAddr(line string) (string, bool) {
	const marker = " listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	fields := strings.Fields(line[i+len(marker):])
	if len(fields) == 0 {
		return "", false
	}
	return fields[0], true
}

// waitAddr blocks until the child printed its listen address.
func (p *proc) waitAddr(timeout time.Duration) (string, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case a := <-p.addr:
		return a, nil
	case <-p.done:
		return "", fmt.Errorf("%s exited before listening", p.name)
	case <-t.C:
		return "", fmt.Errorf("%s did not listen within %v", p.name, timeout)
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill stops the child's whole process group and waits until it has ended.
func (p *proc) kill() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // ESRCH when already gone
	<-p.done
	<-p.logDone
}

// cluster is one fresh Monitor + MDS set, living in its own directory (logs,
// WAL and snapshot dirs) under the run directory.
type cluster struct {
	dir     string
	procs   []*proc
	monAddr string
	mdsAddr []string
	mdsPid  []int
	setup   time.Duration // first spawn → probe set resolved
}

// bootCluster spawns the daemons and returns once both MDSs joined and every
// probe path resolves through a client. On failure everything is stopped.
func bootCluster(binDir, dir, snapshot string, wl workload, probes []string) (c *cluster, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c = &cluster{dir: dir}
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, c.logs())
			c.stop()
			c = nil
		}
	}()
	start := time.Now()
	mon, err := startProc("d2monitor", filepath.Join(dir, "d2monitor.log"), nil,
		filepath.Join(binDir, "d2monitor"),
		"-addr", "127.0.0.1:0", "-servers", fmt.Sprint(mdsCount),
		"-snapshot", snapshot, "-hb-timeout", hbTimeout.String())
	if err != nil {
		return c, err
	}
	c.procs = append(c.procs, mon)
	if c.monAddr, err = mon.waitAddr(30 * time.Second); err != nil {
		return c, err
	}
	for i := 0; i < mdsCount; i++ {
		name := fmt.Sprintf("d2mds-%d", i)
		args := []string{"-addr", "127.0.0.1:0", "-monitor", c.monAddr,
			"-heartbeat", heartbeat.String(), "-lease", entryLease.String()}
		if wl.WAL {
			args = append(args, "-wal-dir", filepath.Join(dir, name+"-wal"),
				"-snapshot-interval", snapshotEvery.String())
		}
		p, err := startProc(name, filepath.Join(dir, name+".log"), nil, filepath.Join(binDir, "d2mds"), args...)
		if err != nil {
			return c, err
		}
		c.procs = append(c.procs, p)
		c.mdsPid = append(c.mdsPid, p.cmd.Process.Pid)
	}
	for _, p := range c.procs[1:] {
		a, err := p.waitAddr(30 * time.Second)
		if err != nil {
			return c, err
		}
		c.mdsAddr = append(c.mdsAddr, a)
	}
	cl, err := client.Connect(client.Config{MonitorAddr: c.monAddr, Seed: 1, Name: "probe"})
	if err != nil {
		return c, fmt.Errorf("probe client: %w", err)
	}
	defer func() { _ = cl.Close() }()
	for _, p := range probes {
		if _, err := cl.Lookup(p); err != nil {
			return c, fmt.Errorf("probe lookup %s: %w", p, err)
		}
	}
	c.setup = time.Since(start)
	return c, nil
}

// exitedEarly names the children that ended on their own.
func (c *cluster) exitedEarly() []string {
	var names []string
	for _, p := range c.procs {
		if p.exited() {
			names = append(names, p.name)
		}
	}
	return names
}

// stop kills every child by process group, waits for each, and removes the
// cluster's directory.
func (c *cluster) stop() {
	for _, p := range c.procs {
		p.kill()
	}
	c.procs = nil
	_ = os.RemoveAll(c.dir) // the run directory's removal retries it
}

// logs returns the tail of each child's log, for the error of a failed run.
func (c *cluster) logs() string {
	var b strings.Builder
	for _, p := range c.procs {
		data, err := os.ReadFile(p.logPath)
		if err != nil {
			continue
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) > 8 {
			lines = lines[len(lines)-8:]
		}
		fmt.Fprintf(&b, "--- %s\n%s\n", p.name, strings.Join(lines, "\n"))
	}
	return b.String()
}

// writeSnapshot serialises the generated namespace for d2monitor -snapshot.
func writeSnapshot(path string, tree *namespace.Tree) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tree.WriteSnapshot(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
