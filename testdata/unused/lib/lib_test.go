package lib

import "testing"

func TestOnlyHere(t *testing.T) {
	if Unused()+(Point{Z: 1}).Z != 2 {
		t.Fatal("fixture arithmetic")
	}
}
