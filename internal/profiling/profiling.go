// Package profiling backs the command-line tools' -cpuprofile and
// -memprofile flags with the standard runtime/pprof writers. Both
// outputs are opt-in: with empty paths nothing is profiled, written or
// printed.
package profiling

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// CheckPath reports an error, prefixed with the flag's name, when path
// cannot name a profile output: its directory must exist and the path
// itself must not be a directory. An empty path (profiling off) passes.
func CheckPath(flagName, path string) error {
	if path == "" {
		return nil
	}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return fmt.Errorf("-%s %q is a directory; name a profile file", flagName, path)
	}
	dir := filepath.Dir(path)
	fi, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("-%s %q: %v", flagName, path, err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("-%s %q: %s is not a directory", flagName, path, dir)
	}
	return nil
}

// CheckPaths is CheckPath for the -cpuprofile and -memprofile pair a
// command takes.
func CheckPaths(cpuPath, memPath string) error {
	if err := CheckPath("cpuprofile", cpuPath); err != nil {
		return err
	}
	return CheckPath("memprofile", memPath)
}

// Start begins CPU profiling into cpuPath when it is non-empty. The
// returned stop ends the CPU profile and, when memPath is non-empty,
// writes a heap profile there after a GC, so it reflects live memory at
// exit. Call stop exactly once, as the program finishes.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(err, cpu.Close())
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeap(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeap writes the heap profile to path.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}
