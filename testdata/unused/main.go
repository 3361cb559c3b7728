// Command fixture is the module that TestUnusedDeclsFixture scans: its
// lib package holds exactly two declarations that no non-test code uses,
// lib.Unused and the field lib.Point.Z.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	fmt.Println(lib.Run())
}
