//go:build !amd64 || noasm

package main

// asmBuilt reports whether internal/mat is built with its AVX2+FMA whitening
// kernel; on this build it runs the pure-Go kernel only.
const asmBuilt = false
