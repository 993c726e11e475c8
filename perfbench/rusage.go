package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is one getrusage(RUSAGE_SELF) reading: the CPU time of every
// thread of the process, user plus system, and its peak resident set.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // bytes
}

// readUsage samples the process's resource usage.
func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, err
	}
	return usage{
		cpu:    timevalDuration(ru.Utime) + timevalDuration(ru.Stime),
		maxRSS: maxRSSBytes(ru.Maxrss),
	}, nil
}

// timevalDuration converts a rusage timeval to a duration.
func timevalDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// maxRSSBytes converts ru_maxrss, which Linux reports in KiB, to bytes.
func maxRSSBytes(kib int64) int64 { return kib << 10 }

// residentBytes reads the process's current resident set from
// /proc/self/statm, whose second field counts resident pages.
func residentBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	return parseStatmResident(string(data), os.Getpagesize())
}

func parseStatmResident(statm string, pageSize int) (int64, error) {
	fields := strings.Fields(statm)
	if len(fields) < 2 {
		return 0, fmt.Errorf("statm: %q has no resident field", statm)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return pages * int64(pageSize), nil
}

// mib expresses a byte count in MiB.
func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }
