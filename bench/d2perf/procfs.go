package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// rssMB is the largest peak resident set (VmHWM) among the MDS processes.
func rssMB(pids []int) float64 {
	var peak float64
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue // not Linux, or the process is gone: reported as 0
		}
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				peak = max(peak, kb/1024)
			}
		}
	}
	return peak
}

// schedTime is a process's scheduler accounting: time on a CPU and time
// runnable but waiting for one, summed over its threads.
type schedTime struct{ cpu, wait time.Duration }

func (a schedTime) plus(b schedTime) schedTime  { return schedTime{a.cpu + b.cpu, a.wait + b.wait} }
func (a schedTime) minus(b schedTime) schedTime { return schedTime{a.cpu - b.cpu, a.wait - b.wait} }

// readSched sums /proc/<pid>/task/*/schedstat. Where the kernel does not
// keep it the reading is zero, and so are the metrics derived from it.
func readSched(pid int) schedTime {
	var total schedTime
	files, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid)) // the pattern is well-formed
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		var cpu, wait int64
		if _, err := fmt.Sscan(string(data), &cpu, &wait); err == nil {
			total.cpu += time.Duration(cpu)
			total.wait += time.Duration(wait)
		}
	}
	return total
}
