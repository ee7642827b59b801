// Generated loops, one or two per codegen family (simd families and seeded
// directive defects included), each directive above its loop. Produced by
// perfbench_probe corpus --seed 5 --size 4000 --buggy 0.15 --simd; pinned
// by scripts/check_lint_audit.sh.

// omp-20 (alloc_loop)
for (step = 0; step < 799; step++) {
    fp = (double *) malloc(94 * sizeof(double));
    fp[0] = C[step];
    C[step] = fp[0] * 2;
    free(fp);
}

// omp-16 (early_exit)
for (i = 0; i < dim; i++) {
    if (list[i] == err) {
        s = i;
        break;
    }
}

// omp-31 (elementwise)
#pragma omp parallel for
for (ii = 0; ii < N; ii++)
    in[ii] = log(b[ii]);

// omp-244 (elementwise, seeded shared-induction)
#pragma omp parallel for shared(jj)
for (jj = 0; jj < dim; jj++)
    vec[jj] = C[jj] * C[jj];

// omp-33 (extern_kernel)
#pragma omp parallel for
for (idx = 0; idx < len; idx++)
    u[idx] = evolve(idx);

// omp-26 (extern_kernel, seeded shared-induction)
#pragma omp parallel for schedule(dynamic) shared(j)
for (j = 0; j < m; j++)
    x[j] = eval_rhs(x[j], j);

// omp-38 (goto_cleanup)
for (l = 0; l < size; l++) {
    if (mat[l] < 0)
        goto fail;
    mat[l] = mat[l] + 1;
}
fail:
t = 1;

// omp-95 (impure_local_call)
double update_cell(double cur) {
    t += cur;
    return t;
}
for (ii = 0; ii < 2583; ii++)
    cache[ii] = update_cell(cache[ii]);

// omp-25 (indirect_write, seeded loop-carried-dependence)
#pragma omp parallel for
for (l = 0; l < m; l++)
    w[out[l]] += a[l];

// omp-190 (indirect_write)
for (ii = 0; ii < len; ii++)
    mat[in[ii]] += c[ii];

// omp-74 (init_1d)
#pragma omp parallel for schedule(static)
for (i = 0; i < m; i++)
    u[i] = i;

// omp-987 (init_1d, seeded shared-induction)
#pragma omp parallel for schedule(static) shared(step)
for (step = 0; step < m; step++)
    C[step] = step;

// omp-1 (init_2d)
#pragma omp parallel for schedule(static) private(i)
for (j = 0; j < m; j++)
    for (i = 0; i < N; i++)
        A[j][i] = j + i;

// omp-19 (init_2d, seeded missing-private)
#pragma omp parallel for schedule(static)
for (ii = 0; ii < m; ii++)
    for (idx = 0; idx < N; idx++)
        grid[ii][idx] = ii + idx;

// omp-39 (io_loop)
for (idx = 0; idx < size; idx++)
    scanf("%d", w + idx);

// omp-367 (last_index)
for (pos = 0; pos < limit; pos++) {
    if (field[pos] == flag)
        val = pos;
    field[pos] = field[pos];
}

// omp-247 (local_pure_call)
double relax_point(double t) {
    return t - t;
}
#pragma omp parallel for
for (jj = 0; jj < M; jj++)
    out[jj] = relax_point(w[jj]);

// omp-983 (local_pure_call, seeded shared-induction)
double integrate(double flag) {
    return flag * flag;
}
#pragma omp parallel for shared(i)
for (i = 0; i < n; i++)
    out[i] = integrate(grid[i]);

// omp-61 (matmul)
#pragma omp parallel for schedule(static) private(j, ii)
for (i = 0; i < m; i++)
    for (j = 0; j < size2; j++)
        for (ii = 0; ii < size; ii++)
            heap[i][j] += x[i][ii] * C[ii][j];

// omp-17 (matmul, seeded missing-private)
#pragma omp parallel for schedule(static)
for (ii = 0; ii < dim; ii++) {
    for (j = 0; j < len; j++) {
        in[(ii * len) + j] = 0;
        for (ii2 = 0; ii2 < m; ++ii2)
            in[(ii * len) + j] += a[(ii * m) + ii2] * vec[(ii2 * len) + j];
    }
}

// omp-29 (minmax_reduction)
#pragma omp parallel for reduction(max: sum)
for (j = 0; j < m; j++) {
    if (y[j] > sum)
        sum = y[j];
}

// omp-230 (minmax_reduction, seeded missing-reduction)
#pragma omp parallel for
for (l = 0; l < M; l++) {
    if (grid[l] < energy)
        energy = grid[l];
}

// omp-55 (offset_read)
#pragma omp parallel for
for (ii = 2; ii < N; ii++)
    vec[ii] = x[ii - 2] + x[ii];

// omp-200 (offset_read, seeded shared-induction)
#pragma omp parallel for shared(l)
for (l = 1; l < len; l++)
    grid[l] = c[l - 1] + c[l];

// omp-226 (opaque_accumulate)
for (pos = 0; pos < len; pos++)
    dot = dot * grid[pos] + 0.9;

// omp-142 (outer_dependent, seeded loop-carried-dependence)
#pragma omp parallel for
for (l = 0; l < len; l++)
    for (i = 0; i < size; i++)
        mat[i] += vec[l][i];

// omp-139 (outer_dependent)
for (j = 0; j < n; j++)
    for (jj = 0; jj < count; jj++)
        w[jj] += in[j][jj];

// omp-48 (pointer_chase)
for (step = 0; step < size; step++) {
    total += tok->value;
    tok = tok->next;
}
ctx = tok;

// omp-0 (private_temp)
#pragma omp parallel for private(tmp)
for (i = 0; i < nelems; i++) {
    tmp = B[i] * 0.1;
    in[i] = tmp + tmp + B[i];
}

// omp-183 (private_temp, seeded missing-private)
#pragma omp parallel for
for (jj = 0; jj < N; jj++) {
    t = C[jj] * 3.0;
    data[jj] = apply_kernel(t);
}

// omp-91 (prod_reduction)
#pragma omp parallel for reduction(*: res)
for (i = 0; i < dim; i++)
    res *= grid[i];

// omp-1392 (prod_reduction, seeded missing-reduction)
#pragma omp parallel for
for (j = 0; j < 3801; j++)
    total *= in[j];

// omp-43 (rand_loop)
for (it = 0; it < dim; it++)
    cache[it] = rand() % 323;

// omp-434 (recurrence, seeded loop-carried-dependence)
#pragma omp parallel for
for (jj = 2; jj < n; jj++)
    u[jj] = u[jj - 1] + u[jj - 2];

// omp-69 (recurrence)
for (ii = 2; ii < 919831; ii++)
    out[ii] = out[ii - 1] + out[ii - 2];

// omp-378 (scalar_carried, seeded loop-carried-dependence)
#pragma omp parallel for
for (l = 0; l < size; l++) {
    in[l] = flag + c[l];
    flag = c[l] * 0.2;
}

// omp-3 (scalar_carried)
for (l = 0; l < 876541; l++) {
    y[l] = d + u[l] + d;
    d = u[l] * 1.5;
}

// omp-4 (simd_nest)
#pragma omp parallel for schedule(static) private(ii)
for (jj = 0; jj < count; jj++)
    for (ii = 0; ii < count2; ii++)
        C[jj][ii] = in[jj][ii] * 3.0;

// omp-144 (simd_nest, seeded simd-on-non-innermost)
#pragma omp parallel for simd schedule(static) private(l2)
for (l = 0; l < n; l++)
    for (l2 = 0; l2 < count; l2++)
        v[l][l2] = x[l][l2] * 0.5;

// omp-205 (simd_offset_stream)
#pragma omp simd safelen(4)
for (ii = 4; ii < m; ii++)
    v[ii] = v[ii - 4] + w[ii];

// omp-337 (simd_offset_stream, seeded simd-misses-safelen)
#pragma omp simd
for (ii = 2; ii < dim; ii++)
    grid[ii] = grid[ii - 2] + arr[ii];

// omp-66 (simd_reduction)
#pragma omp simd reduction(+: acc)
for (k = 0; k < len; k++)
    acc += v[k];

// omp-301 (simd_reduction, seeded simd-reduction-mismatch)
#pragma omp simd
for (k = 0; k < 477387; k++)
    sigma += x[k];

// omp-100 (simd_saxpy)
#pragma omp simd
for (ii = 0; ii < 594444; ii++)
    out[ii] += tmp * y[ii];

// omp-73 (small_trip)
for (ii = 0; ii < 3; ii++)
    items[ii] = ii;

// omp-12 (stencil)
#pragma omp parallel for schedule(static) private(i) reduction(max: acc)
for (j = 1; j < M - 1; j++)
    for (i = 1; i < size - 1; i++) {
        w[j][i] = 0.5 * (c[j][i] + c[j - 1][i] + c[j + 1][i] + c[j][i - 1] + c[j][i + 1]);
        if (fabs(w[j][i] - c[j][i]) > acc)
            acc = fabs(w[j][i] - c[j][i]);
    }

// omp-559 (stencil, seeded missing-private)
#pragma omp parallel for schedule(static)
for (l = 1; l < len - 1; l++)
    for (k = 1; k < count - 1; k++) {
        out[l][k] = 4.0 * (v[l][k] + v[l - 1][k] + v[l + 1][k] + v[l][k - 1] + v[l][k + 1]);
    }

// omp-492 (string_ops)
for (i = 0; head[i] != 0; i++)
    str[i] = head[i] + 32;

// omp-9 (sum_reduction)
#pragma omp parallel for reduction(+: sum)
for (ii = 0; ii < n; ii++)
    sum += transform(w[ii]);

// omp-5 (sum_reduction, seeded missing-reduction)
#pragma omp parallel for
for (l = 0; l < N; l++)
    d += smooth_step(arr[l]);

// omp-64 (triangular)
#pragma omp parallel for schedule(dynamic) private(step)
for (k = 0; k < dim; k++)
    for (step = k + 1; step < dim; step++)
        arr[k][step] = B[k][step] - B[step][k];

// omp-219 (triangular, seeded missing-private)
#pragma omp parallel for schedule(static)
for (l = 0; l < m; l++)
    for (jj = l + 1; jj < m; jj++)
        v[l][jj] = c[l][jj] - c[jj][l];

// omp-2 (unannotated)
for (pos = 0; pos < n; pos++)
    cache[pos] = 1e-6;

// omp-15 (unbalanced_if)
#pragma omp parallel for schedule(dynamic)
for (ii = 0; ii < size; ii++) {
    if (c[ii] > 4.0)
        c[ii] = body_force(c[ii]);
}

// omp-889 (unbalanced_if, seeded shared-induction)
#pragma omp parallel for schedule(dynamic) shared(jj)
for (jj = 0; jj < n; jj++) {
    if (u[jj] > 0.25)
        u[jj] = advance(u[jj]);
}

// Hand-written loops for engine paths the families do not reach: a GCD
// refutation, an opaque invariant symbol that cancels, and a lower bound
// that names an outer induction.
#pragma omp parallel for
for (i = 0; i < n; i++)
    q[2 * i] = q[2 * i + 1] + 1.0;

#pragma omp parallel for
for (i = 0; i < n; i++)
    r[i + n * m] = r[i + n * m] * 2.0;

#pragma omp parallel for private(j)
for (i = 1; i < n; i++)
    for (j = i + 1; j < n; j++)
        t[i][j] = t[i][j - 1] + t[j][i];
