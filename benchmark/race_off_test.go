//go:build !race

package main

const smokeRows = 2000
