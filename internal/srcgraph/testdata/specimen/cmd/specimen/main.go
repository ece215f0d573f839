// Command specimen is the specimen module's one binary: the root the
// unreachable check propagates from, with every package initializer.
package main

import (
	"fmt"

	"specimen/internal/metrics"
	"specimen/internal/reach"
	"specimen/internal/simt"
	"specimen/internal/stats"
)

func main() {
	stats.Wire(&metrics.Registry{})
	fmt.Println(simt.RunGPU(&simt.State{}), reach.Serve())
}
