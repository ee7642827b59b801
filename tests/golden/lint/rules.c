/* Byte-pin fixture for clpp-lint: one annotated loop per lint rule, with
   fix-its, ranges and dependence provenance. scripts/check_lint_audit.sh
   compares clpp-lint's output on it against the golden files beside it. */
double scale(double x);
int seen[64];

void rules(int n, double *a, double *b, double *c, double *d, int *idx) {
  int i, j;
  double t, s, m;

  /* loop-carried-dependence: a[i] reads a[i - 1], distance 1 */
#pragma omp parallel for
  for (i = 1; i < n; i++)
    a[i] = a[i - 1] + b[i];

  /* loop-carried-dependence through an unresolved subscript */
#pragma omp parallel for
  for (i = 0; i < n; i++)
    c[idx[i]] = c[idx[i] + 1] * 2.0;

  /* loop-carried-dependence on a scalar recurrence */
#pragma omp parallel for
  for (i = 0; i < n; i++) {
    b[i] = t;
    t = 0.5 * t + a[i];
  }

  /* missing-private, the fix-it keeping every other clause */
#pragma omp parallel for schedule(dynamic, 4) num_threads(8) firstprivate(c) lastprivate(d) default(shared) nowait
  for (i = 0; i < n; i++) {
    t = a[i] * 2.0;
    b[i] = t + t;
  }
#pragma omp for collapse(1) schedule(guided)
  for (i = 0; i < n; i++) {
    m = b[i];
    c[i] = m * m;
  }

  /* missing-reduction, and a wrong operator */
#pragma omp parallel for
  for (i = 0; i < n; i++)
    s += a[i] * b[i];
#pragma omp parallel for reduction(*: s)
  for (i = 0; i < n; i++)
    s = s + a[i];

  /* missing-reduction for a max idiom that is only privatized */
#pragma omp parallel for private(m)
  for (i = 0; i < n; i++)
    if (a[i] > m) m = a[i];

  /* shared-induction */
#pragma omp parallel for shared(i, a)
  for (i = 0; i < n; i++)
    a[i] = 0.0;

  /* uninitialized-private */
#pragma omp parallel for private(t)
  for (i = 0; i < n; i++) {
    b[i] = t;
    t = a[i];
  }

  /* non-canonical-loop: no loop follows, a while loop, an early exit */
#pragma omp parallel for
  t = 1.0;
#pragma omp parallel for
  for (i = 0; i * i < n; i++)
    a[i] = 1.0;
#pragma omp parallel for
  for (i = 0; i < n; i++) {
    if (a[i] < 0.0) break;
    b[i] = a[i];
  }

  /* small-trip-count */
#pragma omp parallel for
  for (i = 0; i < 4; i++)
    c[i] = a[i] + b[i];

  /* unknown-call-effect */
#pragma omp parallel for
  for (i = 0; i < n; i++)
    d[i] = scale(a[i]) + b[i];

  /* simd-unsafe-carried-dependence: distance 1, and safelen past distance 4 */
#pragma omp simd
  for (i = 1; i < n; i++)
    a[i] = a[i - 1] * 0.5;
#pragma omp simd safelen(8)
  for (i = 4; i < n; i++)
    b[i] = b[i - 4] + 1.0;

  /* simd-misses-safelen */
#pragma omp simd
  for (i = 3; i < n; i++)
    c[i] = c[i - 3] + a[i];

  /* simd-reduction-mismatch */
#pragma omp simd
  for (i = 0; i < n; i++)
    s += a[i];

  /* simd-on-non-innermost */
#pragma omp parallel for simd private(j)
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      d[i * n + j] = a[i] * b[j];

  /* clean: a two-deep nest the engine proves parallel */
#pragma omp parallel for private(j)
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      c[i * n + j] = a[i] + b[j];
}
