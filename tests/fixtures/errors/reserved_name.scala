class $inferred {
  var x: scala.Int = 0
}

class Holder {
  val f: $inferred = make()
}
