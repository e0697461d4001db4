package repro.eval

import repro.core.{Method, Rule}
import repro.lake.Benchmark.BenchCase

/** The paper's programmatic evaluation methodology (§5.1) plus the
  * hand-curated ground-truth variant (Table 2).
  *
  * For each case Cᵢ, a method learns a rule from the 10% training prefix;
  * *precision* on Cᵢ is 1 iff the rule raises no alarm on Cᵢ's own test
  * suffix; *recall* is the fraction of other cases Cⱼ (j≠i) the rule flags
  * (Eq. 17), squashed to 0 when precision fails. Cases with no rule raise no
  * alarms (precision 1, recall 0). Scores are averaged over the subset of
  * cases where syntactic patterns exist (the paper reports on 571/1000 such
  * cases; here the subset is the non-NL cases).
  *
  * Ground-truth mode applies the paper's two manual adjustments: injected
  * noise values are removed from the test split (precision), and same-domain
  * columns are excluded from the recall denominator (recall).
  */
object Eval {

  final case class EvalConfig(
      trainFrac: Double = 0.1,
      groundTruth: Boolean = false)

  final case class CaseOutcome(
      id: String,
      domain: String,
      hasRule: Boolean,
      precision: Int,
      recall: Double) {
    def f1: Double = Eval.f1(precision, recall)
  }

  final case class MethodScore(
      method: String,
      precision: Double,
      recall: Double,
      cases: Vector[CaseOutcome]) {
    def f1: Double = Eval.f1(precision, recall)
  }

  /** Harmonic mean of precision and recall; 0 when both are 0. */
  def f1(precision: Double, recall: Double): Double =
    if (precision + recall <= 0) 0.0
    else 2.0 * precision * recall / (precision + recall)

  /** The subset "where syntactic patterns exist" (§5.3). */
  def patternedSubset(cases: Seq[BenchCase]): Vector[BenchCase] =
    cases.filterNot(_.isNL).toVector

  private implicit val ec: scala.concurrent.ExecutionContext =
    scala.concurrent.ExecutionContext.global

  /** Run `f` over the items on the global pool (cases are independent and
    * all solver state is read-only; parallel collections are not among the
    * offline deps, so plain Futures).
    */
  private def parMap[A, B](items: Seq[A])(f: A => B): Vector[B] = {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.duration.Duration
    Await.result(Future.traverse(items.toVector)(a => Future(f(a))), Duration.Inf)
  }

  /** Learn rules for every subset case once. */
  def learnRules(method: Method, subset: Seq[BenchCase],
                 cfg: EvalConfig): Map[String, Option[Rule]] =
    parMap(subset)(c => c.id -> method.learn(c.train(cfg.trainFrac))).toMap

  def evaluate(method: Method, cases: Seq[BenchCase],
               cfg: EvalConfig = EvalConfig()): MethodScore = {
    val subset = patternedSubset(cases)
    val rules = learnRules(method, subset, cfg)
    val outcomes = parMap(subset) { c =>
      val rule = rules(c.id)
      val ownTest = if (cfg.groundTruth) c.testClean(cfg.trainFrac) else c.test(cfg.trainFrac)
      val precision = rule match {
        case None    => 1
        case Some(r) => if (r.flags(ownTest)) 0 else 1
      }
      val recall = (rule, precision) match {
        case (Some(r), 1) =>
          val others = subset.filter(j =>
            j.id != c.id && !(cfg.groundTruth && j.domain == c.domain))
          if (others.isEmpty) 0.0
          else others.count(j => r.flags(j.test(cfg.trainFrac))).toDouble / others.size
        case _ => 0.0
      }
      CaseOutcome(c.id, c.domain, rule.isDefined, precision, recall)
    }
    MethodScore(method.name,
      outcomes.map(_.precision.toDouble).sum / math.max(1, outcomes.size),
      outcomes.map(_.recall).sum / math.max(1, outcomes.size),
      outcomes)
  }

  /** Evaluate many methods against the same benchmark. */
  def evaluateAll(methods: Seq[Method], cases: Seq[BenchCase],
                  cfg: EvalConfig = EvalConfig()): Vector[MethodScore] =
    methods.map(m => evaluate(m, cases, cfg)).toVector

  /** Header of a [[scoreRow]] table. */
  val scoreHeader: String = f"${"method"}%-14s ${"precision"}%9s ${"recall"}%9s ${"F1"}%9s"

  /** One aligned row: method, precision, recall and their F1. */
  def scoreRow(method: String, precision: Double, recall: Double): String =
    f"$method%-14s $precision%9.3f $recall%9.3f ${f1(precision, recall)}%9.3f"
}
