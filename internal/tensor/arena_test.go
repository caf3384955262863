package tensor

import "testing"

func TestArenaClassesBoundSlack(t *testing.T) {
	for k := 0; k < 80; k++ {
		if got := classOf(classCap(k)); got != k {
			t.Fatalf("class %d capacity %d maps back to class %d", k, classCap(k), got)
		}
	}
	for n := 1; n < 1<<16; n++ {
		c := classCap(classOf(n))
		if c < n {
			t.Fatalf("n=%d gets capacity %d", n, c)
		}
		if n > minClassElems && float64(c) > 1.25*float64(n) {
			t.Fatalf("n=%d gets capacity %d: over 25%% slack", n, c)
		}
	}
}

func TestArenaReusesAndPoisons(t *testing.T) {
	var a Arena
	x := a.New(10, 7)
	for i := range x.Data() {
		x.Data()[i] = float32(i + 1)
	}
	buf := &x.Data()[0]
	a.Release(x)
	if x.Data() != nil || x.Shape() != nil {
		t.Fatalf("released tensor not poisoned: shape %v, %d elements", x.Shape(), x.Size())
	}
	a.Release(x) // a second release does nothing
	before := GetPoolStats()
	y := a.New(66) // the same class as 70: the buffer comes back, zeroed
	if &y.Data()[0] != buf {
		t.Fatal("a released buffer of the class was not reused")
	}
	for i, v := range y.Data() {
		if v != 0 {
			t.Fatalf("New served a dirty buffer at %d: %v", i, v)
		}
	}
	if s := GetPoolStats(); s.Gets-before.Gets != 1 || s.Hits-before.Hits != 1 {
		t.Fatalf("pool stats moved by %+v, want one get and one hit", s)
	}
	z := a.Empty() // a scalar
	a.ReleaseAll()
	if y.Data() != nil || z.Data() != nil {
		t.Fatal("ReleaseAll left a live tensor unpoisoned")
	}
	if e := a.New(0, 3); e.Size() != 0 {
		t.Fatalf("empty shape has %d elements", e.Size())
	}
}

func TestArenaMissTakesUpToTwiceTheClass(t *testing.T) {
	var a Arena
	big := a.Empty(200)
	a.Release(big)
	if got := a.Empty(60); cap(got.Data()) != classCap(classOf(60)) {
		t.Fatal("a buffer over 2x the request's class served it")
	}
	var b Arena
	mid := b.Empty(100)
	b.Release(mid)
	if got := b.Empty(60); cap(got.Data()) != classCap(classOf(100)) {
		t.Fatalf("a miss in class %d did not take the free buffer of class %d", classOf(60), classOf(100))
	}
}

func TestArenaDropsBuffersAnIterationLeftIdle(t *testing.T) {
	var a Arena
	a.New(1000)
	a.New(50)
	a.ReleaseAll() // both buffers are free
	a.New(50)      // only the small class is used this iteration
	a.ReleaseAll()
	if n := len(a.free[classOf(1000)]); n != 0 {
		t.Fatalf("an idle buffer survived a whole iteration: %d left", n)
	}
	if n := len(a.free[classOf(50)]); n != 1 {
		t.Fatalf("the reused buffer was dropped: %d left", n)
	}
}

func TestArenaDropForgetsWithoutPoisoning(t *testing.T) {
	var a Arena
	if a.Drop() {
		t.Fatal("an unused arena reports it served a request")
	}
	x := a.New(40)
	x.Data()[0] = 7
	a.Release(a.New(40))
	if !a.Drop() {
		t.Fatal("a used arena reports it served nothing")
	}
	if x.Size() != 40 || x.Data()[0] != 7 {
		t.Fatal("Drop poisoned a tensor still in use")
	}
	if y := a.New(40); &y.Data()[0] == &x.Data()[0] {
		t.Fatal("a dropped arena reused a buffer")
	}
	if !a.Drop() || a.Drop() {
		t.Fatal("Drop does not reset what the arena served")
	}
}

func TestArenaNewIsZeroOnMissAndHit(t *testing.T) {
	zero := func(what string, x *Tensor) {
		t.Helper()
		for i, v := range x.Data() {
			if v != 0 {
				t.Fatalf("%s: element %d is %v", what, i, v)
			}
		}
	}
	fill := func(x *Tensor) {
		for i := range x.Data() {
			x.Data()[i] = float32(i + 1)
		}
	}
	var a Arena
	before := GetPoolStats()
	x := a.New(90)
	if s := GetPoolStats(); s.Hits != before.Hits {
		t.Fatal("the first request of an empty arena hit")
	}
	zero("miss", x)
	fill(x)
	a.Release(x)
	y := a.New(90)
	if s := GetPoolStats(); s.Hits-before.Hits != 1 {
		t.Fatal("a request of a released class missed")
	}
	zero("hit", y)
	fill(y)
	a.Release(y)
	zero("hit from a larger class", a.New(60))
}

// TestArenaNeverReusesAHeader: headers come from chunks that are never
// reused, so a released tensor stays poisoned through any number of later
// requests, and after Drop.
func TestArenaNeverReusesAHeader(t *testing.T) {
	var a Arena
	x := a.New(4, 4)
	a.Release(x)
	seen := map[*Tensor]bool{x: true}
	for round := 0; round < 3; round++ {
		for i := 0; i < 2*slabTensors; i++ {
			y := a.New(4, 4)
			if seen[y] {
				t.Fatalf("round %d request %d: a header was handed out twice", round, i)
			}
			seen[y] = true
		}
		a.ReleaseAll()
		if x.Shape() != nil || x.Data() != nil {
			t.Fatalf("round %d: a released tensor came back to life as %v", round, x.Shape())
		}
		if round == 1 {
			a.Drop()
		}
	}
}
