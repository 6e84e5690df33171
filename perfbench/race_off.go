//go:build !race

package main

// raceBuild is true in a -race build, whose numbers the benchmark refuses
// to report: the race detector slows every memory access.
const raceBuild = false
