//go:build race

package models

// raceBuild reports a build with the race detector, whose instrumentation
// changes what the compiler keeps off the heap.
const raceBuild = true
