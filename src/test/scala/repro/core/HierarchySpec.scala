package repro.core

import repro.{PropHelpers, SparkSpec}
import repro.core.EnumerateOracle.{options, optionsPruned}
import repro.core.Pattern._
import repro.core.Tokens.{Cls, Tok}

class HierarchySpec extends SparkSpec with PropHelpers {

  test("digit run options include const, digit and alnum generalizations") {
    val opts = options(Tok(Cls.Digit, "2019"))
    assert(opts.contains(ConstT("2019")))
    assert(opts.contains(FixLen(GClass.Digit, 4)))
    assert(opts.contains(VarLen(GClass.Digit)))
    assert(opts.contains(FixLen(GClass.Alnum, 4)))
    assert(opts.contains(VarLen(GClass.Alnum)))
  }

  test("upper run options include cased generalizations") {
    val opts = options(Tok(Cls.Letter, "US"))
    assert(opts.contains(FixLen(GClass.Upper, 2)))
    assert(opts.contains(VarLen(GClass.Upper)))
    assert(opts.contains(FixLen(GClass.Letter, 2)))
    assert(!opts.contains(FixLen(GClass.Lower, 2)))
  }

  test("lower run options include lower generalizations") {
    val opts = options(Tok(Cls.Letter, "en"))
    assert(opts.contains(FixLen(GClass.Lower, 2)))
    assert(opts.contains(VarLen(GClass.Lower)))
    assert(!opts.contains(VarLen(GClass.Upper)))
  }

  test("mixed-case run has no cased options") {
    val opts = options(Tok(Cls.Letter, "Mar"))
    assert(!opts.exists { case FixLen(GClass.Upper, _) => true; case _ => false })
    assert(!opts.exists { case FixLen(GClass.Lower, _) => true; case _ => false })
    assert(opts.contains(FixLen(GClass.Letter, 3)))
    assert(opts.contains(ConstT("Mar")))
  }

  test("symbol runs stay literal") {
    assert(options(Tok(Cls.Symbol, "//")) == Vector(ConstT("//")))
  }

  test("merged alnum runs have exactly fixed and variable alnum") {
    assert(options(Tok(Cls.Alnum, "a1b2")) ==
      Vector(FixLen(GClass.Alnum, 4), VarLen(GClass.Alnum)))
  }

  test("pruning level 1 drops literals") {
    val o = optionsPruned(Tok(Cls.Digit, "12"), 1)
    assert(!o.exists(_.isInstanceOf[ConstT]))
    assert(o.contains(VarLen(GClass.Alnum)))
  }

  test("pruning level 2 drops alnum on fine digit runs") {
    val o = optionsPruned(Tok(Cls.Digit, "12"), 2)
    assert(o == Vector(FixLen(GClass.Digit, 2), VarLen(GClass.Digit)))
  }

  test("pruning level 2 keeps cased letter options") {
    val o = optionsPruned(Tok(Cls.Letter, "AM"), 2)
    assert(o.contains(FixLen(GClass.Upper, 2)))
    assert(o.contains(VarLen(GClass.Upper)))
    assert(o.contains(VarLen(GClass.Letter)))
  }

  test("pruning level 3 keeps a single narrow variable token") {
    assert(optionsPruned(Tok(Cls.Digit, "12"), 3) == Vector(VarLen(GClass.Digit)))
    assert(optionsPruned(Tok(Cls.Letter, "en"), 3) == Vector(VarLen(GClass.Lower)))
    assert(optionsPruned(Tok(Cls.Letter, "Mar"), 3) == Vector(VarLen(GClass.Letter)))
  }

  test("symbols are never pruned away") {
    for (l <- 0 to 3)
      assert(optionsPruned(Tok(Cls.Symbol, "-"), l) == Vector(ConstT("-")))
  }

  test("merged alnum runs keep both options at every level") {
    for (l <- 0 to 3)
      assert(optionsPruned(Tok(Cls.Alnum, "x9"), l).length == 2)
  }

  test("option counts shrink monotonically with level") {
    for (t <- Seq(Tok(Cls.Digit, "123"), Tok(Cls.Letter, "abc"), Tok(Cls.Letter, "ABC"))) {
      val sizes = (0 to 3).map(l => optionsPruned(t, l).size)
      assert(sizes == sizes.sorted.reverse, s"$t sizes $sizes")
    }
  }

  test("every pruned option is drawn from the full option set (digits)") {
    val full = options(Tok(Cls.Digit, "42")).toSet
    for (l <- 0 to 3)
      assert(optionsPruned(Tok(Cls.Digit, "42"), l).forall(full.contains))
  }

  test("property: every option code decodes to its token and back, with its specificity") {
    // PatternSpec's order: Const > fixed length > variable length, then the narrower class
    def specificity(t: PTok): Int = t match {
      case ConstT(_) => 100
      case FixLen(c, _) => 55 - c.order
      case VarLen(c) => 15 - c.order
    }
    val in = new Enumerate.Interner
    val codeOf = collection.mutable.HashMap.empty[String, Int] // each literal text's code
    def check(c: Int, what: => String): Unit = {
      val t = Code.decode(c, in.text)
      assert(Code.encode(t, in.code(_, intern = false)) == c, what)
      assert(Code.specificity(c) == specificity(t) && t.specificity == specificity(t), what)
      t match {
        case ConstT(text) => assert(Code.isLiteral(c) && codeOf.getOrElseUpdate(text, c) == c, what)
        case _ => assert(!Code.isLiteral(c) && c >= 0, what)
      }
    }
    for (gen <- Seq(EnumerateSpec.genValue, EnumerateSpec.genUnicode)) forSamples(gen, 200) { v =>
      // each lexed token at each level, and every list of every run at a cap that keeps
      // literals and one that prunes to the last resort
      for (t <- (Tokens.tokenize(v) ++ Tokens.tokenizeMerged(v)).distinct; level <- 0 to 3) {
        // distinct options, each of the token's length where it has one
        val opts = optionsPruned(t, level)
        assert(opts.distinct == opts && opts.forall { case FixLen(_, n) => n == t.len; case _ => true },
          s"$opts of $t in '$v' at level $level")
        for (o <- opts) {
          val lits = new Literals
          assert(Code.decode(Code.encode(o, lits.code(_, intern = true)), lits.text) == o, s"$o of $t in '$v'")
        }
      }
      val table = new Enumerate.ValueOptions(v, in)
      for (k <- 0 until table.length) { // each token's text as a literal, whatever its class
        val (text, c) = (table.text(k, k), table.literal(k, intern = true))
        assert(in.text(c) == text && codeOf.getOrElseUpdate(text, c) == c, s"'$text' of '$v' has code $c")
      }
      for (cap <- Seq(Enumerate.DefaultCap, 1); a <- 0 until table.length; b <- a until table.length;
           list <- table.lists(a, b, Enumerate.DefaultTau, cap); opts <- list; c <- opts)
        check(c, s"code $c of run $a … $b of '$v'")
    }
    // equal texts have equal codes (above), and unequal texts unequal codes
    assert(codeOf.size > 100 && codeOf.values.toSet.size == codeOf.size)
  }

  test("a code holds a token length up to 2^27 − 1 and refuses a longer one") {
    assert(Code.MaxLen == (1 << 27) - 1)
    for (cls <- GClass.all) {
      assert(Code.decode(Code.fixed(cls, Code.MaxLen), _ => "") == FixLen(cls, Code.MaxLen))
      intercept[IllegalArgumentException](Code.fixed(cls, Code.MaxLen + 1))
      intercept[IllegalArgumentException](Code.fixed(cls, 0)) // would be `<cls>+`'s code
    }
    val codes = GClass.all.flatMap(cls => Seq(Code.variable(cls), Code.fixed(cls, 1), Code.fixed(cls, Code.MaxLen)))
    assert(codes.distinct.size == codes.size && codes.forall(c => c >= 0 && !Code.isLiteral(c)))
    // a digit run's shape code is its length, so a run one past the bound needs no string
    assert(Tokens.shapeCode("77", 0, 2) == 2L)
    assert(Hierarchy.options(Code.MaxLen.toLong, 1, -1).map(Code.decode(_, _ => "")).head == FixLen(GClass.Digit, Code.MaxLen))
    intercept[IllegalArgumentException](Hierarchy.options(Code.MaxLen + 1L, 1, -1))
    intercept[IllegalArgumentException](Hierarchy.alnum(Code.MaxLen + 1))
  }
}
