package repro.bench

import repro.{SparkSpec, TestFixtures}
import repro.eval.Runners

/** Figure 12 as tables — sensitivity of the FMDV variants to the FPR target
  * r, coverage target m, token budget τ and tolerance θ on B_E.
  *
  * Paper shape: (a) r trades precision for recall, FMDV-VH stable for
  * r ≥ 0.02; (b) insensitive to m over a wide range; (c) small τ costs the
  * non-vertical variants recall while FMDV-V/VH are insensitive; (d) θ
  * matters little unless too small.
  */
class SensitivityBench extends SparkSpec {
  lazy val res = Runners.sensitivity(TestFixtures.art)
  def get(param: String, value: Double, method: String): (Double, Double) =
    res.rows.collectFirst { case (p, v, m, pr, rc) if p == param && math.abs(v - value) < 1e-9 && m == method => (pr, rc) }.get

  test("Figure 12: run and print") {
    println(res.rendered)
    assert(res.rows.nonEmpty)
  }

  test("(a) stricter r never lowers precision; r=0 costs recall") {
    val (p0, r0) = get("r", 0.0, "FMDV-VH")
    val (pLax, rLax) = get("r", 0.25, "FMDV-VH")
    assert(p0 >= pLax - 0.02, s"strict r precision $p0 vs lax $pLax")
    assert(r0 <= rLax + 1e-9, s"strict r recall $r0 should not exceed lax $rLax")
  }

  test("(a) FMDV-VH is stable once r clears the scaled knee") {
    val f1s = Seq(0.05, 0.15, 0.25).map { r =>
      val (p, rc) = get("r", r, "FMDV-VH"); if (p + rc == 0) 0.0 else 2 * p * rc / (p + rc)
    }
    assert(f1s.max - f1s.min < 0.15, s"F1 spread ${f1s}")
  }

  test("(b) insensitive to m in the scaled range") {
    // m=100 exceeds many domains' total corpus coverage at 1/3000 scale,
    // so (unlike the paper's 7.2M-column lake) it is out of range here.
    val recalls = Seq(0.0, 5.0, 20.0).map(m => get("m", m, "FMDV-VH")._2)
    assert(recalls.max - recalls.min < 0.1, s"recall spread over m: $recalls")
  }

  test("(c) small tau hurts FMDV more than FMDV-VH") {
    val lossPlain = get("tau", 13.0, "FMDV")._2 - get("tau", 8.0, "FMDV")._2
    val lossVh = get("tau", 13.0, "FMDV-VH")._2 - get("tau", 8.0, "FMDV-VH")._2
    assert(lossPlain >= lossVh - 0.02,
      s"tau=8 recall loss: FMDV $lossPlain vs FMDV-VH $lossVh — vertical cuts should compensate")
  }

  test("(d) theta insensitive once large enough") {
    val f1s = Seq(0.05, 0.1, 0.2).map { th =>
      val (p, rc) = get("theta", th, "FMDV-VH"); if (p + rc == 0) 0.0 else 2 * p * rc / (p + rc)
    }
    assert(f1s.max - f1s.min < 0.1, s"F1 spread over theta: $f1s")
  }
}
