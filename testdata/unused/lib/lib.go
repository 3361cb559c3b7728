package lib

// Unused is exported, and only a test calls it.
func Unused() int { return 1 }

// Shape is used, so it keeps Square's Area.
type Shape interface{ Area() int }

// Square's Area is called only through Shape.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Point's Z is named only by a test.
type Point struct{ X, Y, Z int }

// Box's Get is called only through the instantiation Box[int].
type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

func total(s Shape) int { return s.Area() }

// Run uses everything above except Unused and Point.Z.
func Run() int {
	b := &Box[int]{v: 2}
	p := Point{X: 1, Y: 2}
	return total(Square{Side: 3}) + b.Get() + p.X + p.Y + helper()
}
