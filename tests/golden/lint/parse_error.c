/* parse-error: the statement below is missing its right-hand side. */
#pragma omp parallel for
for (i = 0; i < n; i++)
  a[i] = ;
