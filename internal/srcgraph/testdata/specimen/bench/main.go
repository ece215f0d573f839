// Command bench stands in for the repository's benchmark, a module of
// its own that imports this one: only loading it as a root module shows
// that it reaches BenchOnly, and square's Area through Shape.
package main

import (
	"errors"
	"fmt"

	"specimen/internal/reach"
)

func main() {
	fmt.Println(reach.BenchOnly(), reach.NewShape(2).Area(), errors.New("done").Error())
}
