//go:build !linux

package main

import "time"

// The benchmark's numbers are only compared on Linux; elsewhere the
// package still builds, with the host facts it cannot read left blank.

func fsType(string) string { return "unknown" }

func memoryBacked(string) bool { return false }

func cpuTime() time.Duration { return 0 }

func cpuModel() string { return "unknown" }
