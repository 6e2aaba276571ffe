// Generated by the GASPARD2 OpenMP chain (one parallel loop per task).
#include <omp.h>

void hf_rhf(const int* fg_ch0, int* hf_rhf_fout) {
  #pragma omp parallel for schedule(static)
  for (long r = 0; r < 259200L; r++) {
    long tl0 = r % 1080;
    long tl1 = (r / 1080);
    int pattern[11];
    gather_tile(pattern, fg_ch0 /* origin [0, -1], paving [[1, 0], [0, 8]] */);
    int t0 = pattern[0] + pattern[1] + pattern[2] + pattern[3] + pattern[4] + pattern[5];
    int o0 = t0 / 6 - t0 % 6;
    int t1 = pattern[2] + pattern[3] + pattern[4] + pattern[5] + pattern[6] + pattern[7];
    int o1 = t1 / 6 - t1 % 6;
    int t2 = pattern[5] + pattern[6] + pattern[7] + pattern[8] + pattern[9] + pattern[10];
    int o2 = t2 / 6 - t2 % 6;
    scatter_tile(hf_rhf_fout /* origin [0, 0], paving [[1, 0], [0, 3]] */);
  }
}

void hf_ghf(const int* fg_ch1, int* hf_ghf_fout) {
  #pragma omp parallel for schedule(static)
  for (long r = 0; r < 259200L; r++) {
    long tl0 = r % 1080;
    long tl1 = (r / 1080);
    int pattern[11];
    gather_tile(pattern, fg_ch1 /* origin [0, -1], paving [[1, 0], [0, 8]] */);
    int t0 = pattern[0] + pattern[1] + pattern[2] + pattern[3] + pattern[4] + pattern[5];
    int o0 = t0 / 6 - t0 % 6;
    int t1 = pattern[2] + pattern[3] + pattern[4] + pattern[5] + pattern[6] + pattern[7];
    int o1 = t1 / 6 - t1 % 6;
    int t2 = pattern[5] + pattern[6] + pattern[7] + pattern[8] + pattern[9] + pattern[10];
    int o2 = t2 / 6 - t2 % 6;
    scatter_tile(hf_ghf_fout /* origin [0, 0], paving [[1, 0], [0, 3]] */);
  }
}

void hf_bhf(const int* fg_ch2, int* hf_bhf_fout) {
  #pragma omp parallel for schedule(static)
  for (long r = 0; r < 259200L; r++) {
    long tl0 = r % 1080;
    long tl1 = (r / 1080);
    int pattern[11];
    gather_tile(pattern, fg_ch2 /* origin [0, -1], paving [[1, 0], [0, 8]] */);
    int t0 = pattern[0] + pattern[1] + pattern[2] + pattern[3] + pattern[4] + pattern[5];
    int o0 = t0 / 6 - t0 % 6;
    int t1 = pattern[2] + pattern[3] + pattern[4] + pattern[5] + pattern[6] + pattern[7];
    int o1 = t1 / 6 - t1 % 6;
    int t2 = pattern[5] + pattern[6] + pattern[7] + pattern[8] + pattern[9] + pattern[10];
    int o2 = t2 / 6 - t2 % 6;
    scatter_tile(hf_bhf_fout /* origin [0, 0], paving [[1, 0], [0, 3]] */);
  }
}

void vf_rvf(const int* hf_rhf_fout, int* vf_rvf_fout) {
  #pragma omp parallel for schedule(static)
  for (long r = 0; r < 86400L; r++) {
    long tl0 = r % 120;
    long tl1 = (r / 120);
    int pattern[13];
    gather_tile(pattern, hf_rhf_fout /* origin [-3, 0], paving [[9, 0], [0, 1]] */);
    int t0 = pattern[0] + pattern[1] + pattern[2] + pattern[3] + pattern[4] + pattern[5];
    int o0 = t0 / 6 - t0 % 6;
    int t1 = pattern[2] + pattern[3] + pattern[4] + pattern[5] + pattern[6] + pattern[7];
    int o1 = t1 / 6 - t1 % 6;
    int t2 = pattern[5] + pattern[6] + pattern[7] + pattern[8] + pattern[9] + pattern[10];
    int o2 = t2 / 6 - t2 % 6;
    int t3 = pattern[7] + pattern[8] + pattern[9] + pattern[10] + pattern[11] + pattern[12];
    int o3 = t3 / 6 - t3 % 6;
    scatter_tile(vf_rvf_fout /* origin [0, 0], paving [[4, 0], [0, 1]] */);
  }
}

void vf_gvf(const int* hf_ghf_fout, int* vf_gvf_fout) {
  #pragma omp parallel for schedule(static)
  for (long r = 0; r < 86400L; r++) {
    long tl0 = r % 120;
    long tl1 = (r / 120);
    int pattern[13];
    gather_tile(pattern, hf_ghf_fout /* origin [-3, 0], paving [[9, 0], [0, 1]] */);
    int t0 = pattern[0] + pattern[1] + pattern[2] + pattern[3] + pattern[4] + pattern[5];
    int o0 = t0 / 6 - t0 % 6;
    int t1 = pattern[2] + pattern[3] + pattern[4] + pattern[5] + pattern[6] + pattern[7];
    int o1 = t1 / 6 - t1 % 6;
    int t2 = pattern[5] + pattern[6] + pattern[7] + pattern[8] + pattern[9] + pattern[10];
    int o2 = t2 / 6 - t2 % 6;
    int t3 = pattern[7] + pattern[8] + pattern[9] + pattern[10] + pattern[11] + pattern[12];
    int o3 = t3 / 6 - t3 % 6;
    scatter_tile(vf_gvf_fout /* origin [0, 0], paving [[4, 0], [0, 1]] */);
  }
}

void vf_bvf(const int* hf_bhf_fout, int* vf_bvf_fout) {
  #pragma omp parallel for schedule(static)
  for (long r = 0; r < 86400L; r++) {
    long tl0 = r % 120;
    long tl1 = (r / 120);
    int pattern[13];
    gather_tile(pattern, hf_bhf_fout /* origin [-3, 0], paving [[9, 0], [0, 1]] */);
    int t0 = pattern[0] + pattern[1] + pattern[2] + pattern[3] + pattern[4] + pattern[5];
    int o0 = t0 / 6 - t0 % 6;
    int t1 = pattern[2] + pattern[3] + pattern[4] + pattern[5] + pattern[6] + pattern[7];
    int o1 = t1 / 6 - t1 % 6;
    int t2 = pattern[5] + pattern[6] + pattern[7] + pattern[8] + pattern[9] + pattern[10];
    int o2 = t2 / 6 - t2 % 6;
    int t3 = pattern[7] + pattern[8] + pattern[9] + pattern[10] + pattern[11] + pattern[12];
    int o3 = t3 / 6 - t3 % 6;
    scatter_tile(vf_bvf_fout /* origin [0, 0], paving [[4, 0], [0, 1]] */);
  }
}

