//go:build race

package main

// The race detector slows the spilling chains several-fold; half the rows
// keep the smoke run inside ten seconds without changing what it covers.
const smokeRows = 1000
