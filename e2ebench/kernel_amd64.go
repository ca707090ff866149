//go:build amd64 && !noasm

package main

// asmBuilt reports whether internal/mat is built with its AVX2+FMA whitening
// kernel, which it then selects on a CPU that supports it.
const asmBuilt = true
