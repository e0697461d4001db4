package repro.eval

import repro.SparkSpec
import repro.core.{Method, Rule}
import repro.lake.Benchmark.BenchCase
import repro.eval.Eval._

class EvalSpec extends SparkSpec {

  private def mkCase(id: String, domain: String, vals: Vector[String],
                     nl: Boolean = false, noise: Set[Int] = Set.empty) =
    BenchCase(id, domain, nl, "", vals, noise, None)

  private val dateCase = mkCase("c1", "date", Vector.fill(50)("1/2/2020"))
  private val wordCase = mkCase("c2", "word", Vector.fill(50)("Booked"))
  private val intCase = mkCase("c3", "int", Vector.fill(50)("42"))
  private val nlCase = mkCase("c4", "nl:x", Vector.fill(50)("John Smith"), nl = true)
  private val cases = Seq(dateCase, wordCase, intCase, nlCase)

  private def ruleOf(f: Seq[String] => Boolean): Rule = new Rule {
    val name = "stub"; def flags(t: Seq[String]) = f(t); def describe = "stub"
  }

  private def method(name0: String)(learn0: Seq[String] => Option[Rule]): Method = new Method {
    val name = name0; def learn(train: Seq[String]) = learn0(train)
  }

  test("patternedSubset drops NL cases") {
    assert(patternedSubset(cases).map(_.id) == Vector("c1", "c2", "c3"))
  }

  test("a method with no rules gets precision 1, recall 0") {
    val s = evaluate(method("none")(_ => None), cases)
    assert(s.precision == 1.0 && s.recall == 0.0)
  }

  test("a perfect memorizing method gets precision 1, recall 1") {
    val m = method("perfect") { train =>
      val v = train.head
      Some(ruleOf(test => test.exists(_ != v)))
    }
    val s = evaluate(m, cases)
    assert(s.precision == 1.0 && s.recall == 1.0)
  }

  test("an always-flagging method is squashed to zero recall") {
    val m = method("paranoid")(_ => Some(ruleOf(_ => true)))
    val s = evaluate(m, cases)
    assert(s.precision == 0.0)
    assert(s.recall == 0.0, "recall must be squashed when precision fails (§5.1)")
  }

  test("per-case outcomes carry f1") {
    val s = evaluate(method("none")(_ => None), cases)
    assert(s.cases.forall(_.f1 == 0.0))
    assert(CaseOutcome("x", "d", hasRule = true, 1, 1.0).f1 == 1.0)
  }

  test("ground-truth mode removes injected noise for precision") {
    val noisy = mkCase("c5", "clean", Vector.fill(49)("7") :+ "HEADER", noise = Set(49))
    val m = method("strict7") { _ => Some(ruleOf(t => t.exists(_ != "7"))) }
    val prog = evaluate(m, Seq(noisy), EvalConfig(groundTruth = false))
    val gt = evaluate(m, Seq(noisy), EvalConfig(groundTruth = true))
    assert(prog.precision == 0.0, "programmatic eval punishes the noise value")
    assert(gt.precision == 1.0, "ground-truth eval removes it")
  }

  test("ground-truth mode excludes same-domain columns from recall") {
    val twin = mkCase("c9", "date", Vector.fill(50)("9/9/2029"))
    val m = method("dateRule") { train =>
      val v = train.head
      Some(ruleOf(test => test.exists(x => x.count(_ == '/') != v.count(_ == '/'))))
    }
    val all = Seq(dateCase, twin, wordCase, intCase)
    val prog = evaluate(m, all, EvalConfig(groundTruth = false))
    val gt = evaluate(m, all, EvalConfig(groundTruth = true))
    assert(gt.recall > prog.recall, "twin date column is no longer a recall loss")
  }

  test("evaluateAll covers every method") {
    val ms = Seq(method("a")(_ => None), method("b")(_ => None))
    assert(evaluateAll(ms, cases).map(_.method) == Vector("a", "b"))
  }

  test("MethodScore f1 is harmonic") {
    val s = MethodScore("m", 0.5, 0.5, Vector.empty)
    assert(math.abs(s.f1 - 0.5) < 1e-12)
    assert(MethodScore("m", 0.0, 0.0, Vector.empty).f1 == 0.0)
  }
}
