// Generated by the SaC -> CUDA backend: host driver.
#include <cuda_runtime.h>
#include <stdio.h>
#include <stdlib.h>

#include "kernels.cu"


int process_frame(const int* h_frame) {
    int* d_frame; cudaMalloc(&d_frame, 6220800u * sizeof(int));
    int* d_hf; cudaMalloc(&d_hf, 2332800u * sizeof(int));
    int* d_vf; cudaMalloc(&d_vf, 1036800u * sizeof(int));

    cudaMemcpyAsync(d_frame, h_frame, 6220800u * sizeof(int), cudaMemcpyHostToDevice);
    hf_k0<<<13, 256>>>(d_hf, d_frame);
    hf_k1<<<3025, 256>>>(d_hf, d_frame);
    hf_k2<<<3038, 256>>>(d_hf, d_frame);
    hf_k3<<<3025, 256>>>(d_hf, d_frame);
    hf_k4<<<13, 256>>>(d_hf, d_frame);
    vf_k0<<<9, 256>>>(d_vf, d_hf);
    vf_k1<<<1005, 256>>>(d_vf, d_hf);
    vf_k2<<<9, 256>>>(d_vf, d_hf);
    vf_k3<<<1005, 256>>>(d_vf, d_hf);
    vf_k4<<<1013, 256>>>(d_vf, d_hf);
    vf_k5<<<1005, 256>>>(d_vf, d_hf);
    vf_k6<<<9, 256>>>(d_vf, d_hf);
    int* h_vf = (int*)malloc(1036800u * sizeof(int));
    cudaMemcpyAsync(h_vf, d_vf, 1036800u * sizeof(int), cudaMemcpyDeviceToHost);
    cudaDeviceSynchronize();
    return 0;
}
