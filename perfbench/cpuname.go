package main

import (
	"bufio"
	"os"
	"strings"
)

// cpuName returns the first "model name" in /proc/cpuinfo, or
// "unknown" where that file does not exist or has no such line.
func cpuName() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
