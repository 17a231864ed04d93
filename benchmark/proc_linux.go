package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// childAttr makes the kernel kill a child when the benchmark dies, so
// an interrupted run never leaves a daemon behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// peakRSS is a running process's peak resident set in kilobytes: VmHWM,
// which counts only the program the process exec'd.
func peakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in /proc status", pid)
}
