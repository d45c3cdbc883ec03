class Box[T] extends T {
  val item: T = fill()
}
