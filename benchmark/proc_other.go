//go:build !linux

package main

import (
	"errors"
	"syscall"
)

// childAttr: only Linux can tie a child's life to the benchmark's.
func childAttr() *syscall.SysProcAttr { return nil }

// peakRSS needs Linux's /proc.
func peakRSS(pid int) (int64, error) {
	return 0, errors.New("the peak RSS of a running process is read from Linux /proc")
}
